"""The narrative demos that run in about a second each still run cleanly.

Demo 03 (a power study) and demo 05 (a live TCP experiment) take tens of
seconds and are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_decision_rule.py", "02_simulated_experiment.py", "04_timesync_and_faults.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
