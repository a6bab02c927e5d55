"""The trace export as a process sees it: the CLI, run as a child
process, writes to stdout what it writes to a file and turns a failed
write into one error, and an export stopped early by its destination
raises at once and leaves no process behind.
"""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chsim import metrics
from chsim.config import ArenaConfig, SimConfig
from chsim.simulator import run

ROOT = Path(__file__).resolve().parent.parent
PROFILE = {"arena": {"node_count": 12, "seed": 4}, "cluster_count": 2, "max_frames": 30,
           "record_residuals": True}
TRACE = run(SimConfig(arena=ArenaConfig(node_count=12, seed=4), cluster_count=2, max_frames=30,
                      record_residuals=True))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(tmp_path, *args) -> subprocess.CompletedProcess:
    """``chsim run`` of PROFILE as a child process, as JSON, plus ``args``."""
    config = tmp_path / "profile.json"
    config.write_text(json.dumps(PROFILE))
    argv = [sys.executable, "-m", "chsim.cli", "run", "--config", str(config), "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([*argv, *args], env=env, capture_output=True, timeout=120)


def test_export_stopped_early_reaps_its_children():
    class Full(io.BytesIO):
        def write(self, data):
            if data[:1] == b"[" and len(data) > 1:  # the first rows of the matrix
                raise OSError("disk full")
            return super().write(data)

    start = time.monotonic()
    sink = Full()
    with pytest.raises(OSError, match="disk full"):
        metrics.export(TRACE, "json", sink)
    assert time.monotonic() - start < 10
    assert sink.getvalue().endswith(b'"residuals":[')  # nothing written after the failure
    assert_no_children()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_child_is_one_cli_error(tmp_path):
    # every write to /dev/full fails with ENOSPC
    child = run_cli(tmp_path, "--out", "/dev/full")
    assert child.returncode == 2
    assert child.stdout == b""
    assert len(child.stderr.splitlines()) == 1
    assert child.stderr.startswith(b"error: ")


def test_stdout_trace_matches_file_trace(tmp_path):
    out = tmp_path / "trace.json"
    to_file = run_cli(tmp_path, "--out", str(out))
    to_stdout = run_cli(tmp_path)
    assert (to_file.returncode, to_file.stderr) == (0, b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert to_stdout.stdout == out.read_bytes()
    assert json.loads(to_stdout.stdout)["residuals"] == TRACE.residual_log.tolist()
