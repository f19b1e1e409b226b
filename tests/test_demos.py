import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # each demo is a narrative script that must run to the end from a
    # checkout, with the package's source on PYTHONPATH; a numpy
    # RuntimeWarning is an error there as in the tests, and the CLI
    # processes that demo 06 starts inherit the setting
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    # the CLI tour prints "(exit N)" for a command that failed
    assert "(exit " not in out.stdout
