"""Each script under ``scripts/`` runs end to end on a small case and writes
a non-empty output."""

import json
import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name,args", [
    ("convergence_sweep.py", ["--n-list", "2", "--out-dir", "{tmp}"]),
    ("growth_survey.py", ["--out", "{tmp}/growth.json"]),
    ("inequality_report.py", ["--n-list", "2,4", "--out", "{tmp}/report.json"]),
    ("descent_sweep.py", ["--families", "exp", "--p-list", "1", "--grids", "12x24",
                          "--n-list", "3", "--out", "{tmp}/sweep.json"]),
])
def test_script_runs_and_writes_output(tmp_path, name, args):
    res = subprocess.run([sys.executable, str(SCRIPTS / name),
                          *(a.format(tmp=tmp_path) for a in args)],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    outputs = sorted(tmp_path.iterdir())
    assert outputs and all(p.stat().st_size > 0 for p in outputs)


def test_descent_sweep_lists_the_cases_that_regress(tmp_path):
    def sweep(*args):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "descent_sweep.py"), "--families", "mono:6",
             "--p-list", "1.5", "--grids", "12x24", "--n-list", "1,3", "--units", "i",
             *args], capture_output=True, text=True, env=child_env())

    old = tmp_path / "old.json"
    res = sweep("--out", str(old))
    assert res.returncode == 0, res.stderr
    record = json.loads(old.read_text())
    assert len(record["cases"]) == 2 and record["certified"] == 2
    assert sweep("--against", str(old)).returncode == 0
    # a run that took fewer steps, and one whose interval lies above
    first, second = sorted(record["cases"])
    record["cases"][first]["steps"] -= 1
    case = record["cases"][second]
    case["lower"], case["value"] = 2.0 * case["value"], 2.0 * case["value"] + 1e-9
    old.write_text(json.dumps(record))
    res = sweep("--against", str(old))
    assert res.returncode == 1
    assert "2 regressions" in res.stdout
    assert f"{first}: " in res.stdout and f"{second}: value" in res.stdout


def test_convergence_sweep_lists_the_rows_that_moved(tmp_path):
    def sweep(out, *args):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "convergence_sweep.py"), "--n-list", "2,4",
             "--out-dir", str(tmp_path / out), *args],
            capture_output=True, text=True, env=child_env())

    assert sweep("old").returncode == 0
    res = sweep("new", "--against", str(tmp_path / "old"))
    assert res.returncode == 0 and "12 pairs, 0 changes" in res.stdout
    # one number moved past the budget, one within it, and a pair that failed
    path = tmp_path / "old" / "exp__taylor.csv"
    lines = path.read_text().splitlines()
    n, err = lines[2].split(",")[:2]
    lines[2] = lines[2].replace(err, repr(float(err) * (1.0 + 1e-9)))
    n3, err3 = lines[3].split(",")[:2]
    lines[3] = lines[3].replace(err3, repr(float(err3) * (1.0 + 1e-12)))
    path.write_text("\n".join(lines) + "\n")
    (tmp_path / "old" / "mono_6__vdp.csv").unlink()
    res = sweep("new", "--against", str(tmp_path / "old"))
    assert res.returncode == 1 and "12 pairs, 2 changes" in res.stdout
    assert f"exp__taylor.csv n={n} error: {err}, was" in res.stdout
    assert "mono_6__vdp.csv: written, failed before" in res.stdout
