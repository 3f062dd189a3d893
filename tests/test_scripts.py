"""Each script under ``scripts/`` runs end to end on a small case and writes
a non-empty output."""

import importlib.util
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
    ("moment_reference.py", ["--n-list", "2", "--m-list", "0", "--p-list", "1.5",
                             "--dps", "20", "--out", "{tmp}/moments.json"]),
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
    # fewer steps than before is no regression; the total change is printed
    total = record["steps"]
    first, second = sorted(record["cases"])
    record["cases"][second]["steps"] += 3
    old.write_text(json.dumps(record))
    res = sweep("--against", str(old))
    assert res.returncode == 0, res.stdout
    assert f"Newton steps {total + 3} -> {total} (-3)" in res.stdout
    assert "0 cases with more steps\n0 cases with a value outside" in res.stdout
    # a run that took fewer steps, and one whose interval lies above
    record["cases"][first]["steps"] -= 1
    case = record["cases"][second]
    case["lower"], case["value"] = 2.0 * case["value"], 2.0 * case["value"] + 1e-9
    old.write_text(json.dumps(record))
    res = sweep("--against", str(old))
    assert res.returncode == 1
    assert "2 regressions" in res.stdout
    assert f"{first}: " in res.stdout and f"{second}: value" in res.stdout
    # the two are listed apart
    assert f"Newton steps {total + 2} -> {total} (-2)" in res.stdout
    steps = record["cases"][first]["steps"]
    assert (f"1 cases with more steps\n  {first}: {steps + 1} steps, was {steps}\n"
            f"1 cases with a value outside the widened interval\n  {second}: value") in res.stdout


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


def test_against_holds_the_vdp_columns_to_the_descent_stop_rule(tmp_path):
    # the vdp bound c E_n and slack at p != 2 rest on the descent's E_n,
    # certified to DESCENT_TOL E_n + NORM_TAIL_BUDGET ||f||: with c = 3 and
    # ||f|| = 10 they may move by 1e-8 * 3 + 3e-9 (the slack 1e-10 more),
    # the error by 1e-10 of itself
    spec = importlib.util.spec_from_file_location("convergence_sweep",
                                                  SCRIPTS / "convergence_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("# converge\nn,error,bound,slack\n4,1.0,3.0,2.0\n")

    def moved(error, bound, slack, descent=(3.0, 10.0)):
        new.write_text(f"n,error,bound,slack\n4,{error!r},{bound!r},{slack!r}\n")
        return sweep.changes("pair", new, old, descent)

    assert moved(1.0 + 5e-11, 3.0 + 3e-8, 2.0 + 3e-8) == []
    assert [line.split()[2] for line in moved(1.0 + 5e-11, 3.0 + 3e-8, 2.0 + 3e-8, None)] \
        == ["bound:", "slack:"]
    assert [line.split()[2] for line in moved(1.0 + 2e-10, 3.0 + 4e-8, 2.0 + 3.4e-8)] \
        == ["error:", "bound:", "slack:"]
