"""The demos run end to end: each exits 0 and writes nothing to stderr.

Each demo is copied into a temporary directory and run there in a fresh
interpreter that imports chsim from ``src``, so a file it writes next to
itself lands outside the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("energy_costs.py", "policy_comparison.py", "single_run.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo, tmp_path):
    script = shutil.copy(ROOT / "demos" / demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
