"""The narrative demos still run cleanly.

Demo 05 (a live TCP experiment) runs on a 25-second wall-clock schedule and
is left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["01_decision_rule.py", "02_simulated_experiment.py", "03_power_study.py",
     "04_timesync_and_faults.py"],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
