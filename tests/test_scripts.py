"""Smoke runs of the experiment scripts at toy sizes, as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "space_scaling": ("scripts/space_scaling.py", "--sizes", "50", "--scale", "0.05"),
    "accuracy_trials": ("scripts/accuracy_trials.py", "--size", "50", "--trials", "1",
                        "--repetitions", "1"),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name, tmp_path):
    script, *args = SCRIPTS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / script), *args],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
