"""Each script under ``scripts/`` runs end to end on a small case and writes
a non-empty output."""

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
])
def test_script_runs_and_writes_output(tmp_path, name, args):
    res = subprocess.run([sys.executable, str(SCRIPTS / name),
                          *(a.format(tmp=tmp_path) for a in args)],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    outputs = sorted(tmp_path.iterdir())
    assert outputs and all(p.stat().st_size > 0 for p in outputs)
