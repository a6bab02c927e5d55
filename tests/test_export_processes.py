"""The forked residual writer leaves no process behind, turns a failed
child into one error, and writes to stdout what it writes to a file.

Each test writes its matrix on two CPUs (four where it says so), one
changed cell a range being enough, so children are forked on any
machine.
"""

import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from chsim import metrics
from chsim.cli import main
from chsim.config import ArenaConfig, SimConfig
from chsim.simulator import run

ROOT = Path(__file__).resolve().parent.parent
PROFILE = {"arena": {"node_count": 12, "seed": 4}, "cluster_count": 2, "max_frames": 30,
           "record_residuals": True}
TRACE = run(SimConfig(arena=ArenaConfig(node_count=12, seed=4), cluster_count=2, max_frames=30,
                      record_residuals=True))


@pytest.fixture
def forking():
    with mock.patch.object(metrics, "_FORK_MIN_CHANGED", 1), \
            mock.patch.object(metrics, "_usable_cpus", lambda: 2):
        yield


@pytest.fixture
def failing_child(forking):
    """Every range writer but the first raises, so each child fails."""
    serial = metrics._rows_json

    def rows_json(bits, lo, hi):
        if lo:
            raise RuntimeError("writer failed")
        return serial(bits, lo, hi)

    with mock.patch.object(metrics, "_rows_json", rows_json):
        yield


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_export_reaps_its_children(forking):
    assert len(metrics._row_bounds(TRACE.residual_log.view("int64"))) == 3
    metrics.export(TRACE, "json", io.BytesIO())
    assert_no_children()


def test_export_stopped_early_reaps_its_children(forking):
    serial = metrics._rows_json

    def slow_rows_json(bits, lo, hi):
        if lo:  # in the child: rows nobody will read
            time.sleep(30)
        return serial(bits, lo, hi)

    class Full(io.BytesIO):
        def write(self, data):
            if data[:1] == b"[" and len(data) > 1:  # the first rows, written as the child runs
                raise OSError("disk full")
            return super().write(data)

    start = time.monotonic()
    with mock.patch.object(metrics, "_rows_json", slow_rows_json), \
            pytest.raises(OSError, match="disk full"):
        metrics.export(TRACE, "json", Full())
    assert time.monotonic() - start < 10
    assert_no_children()


def failing_after(calls: int, call):
    """``call``, except that it raises OSError from its call number
    ``calls`` (counted from 0) on."""
    count = itertools.count()

    def wrapped(*args, **kwargs):
        if next(count) >= calls:
            raise OSError(11, "Resource temporarily unavailable")
        return call(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("calls", [0, 1, 2])
@pytest.mark.parametrize("name", ["fork", "TemporaryFile"])
def test_failed_fork_or_spill_file_leaves_ranges_to_the_parent(name, calls):
    # of the three ranges after the first, the parent writes those from the failed call on
    module = os if name == "fork" else metrics.tempfile
    with mock.patch.object(metrics, "_FORK_MIN_CHANGED", 1), \
            mock.patch.object(metrics, "_usable_cpus", lambda: 4), \
            mock.patch.object(module, name, failing_after(calls, getattr(module, name))):
        assert len(metrics._row_bounds(TRACE.residual_log.view("int64"))) == 5
        out = io.BytesIO()
        metrics.export(TRACE, "json", out)
    assert_no_children()
    assert json.loads(out.getvalue())["residuals"] == TRACE.residual_log.tolist()
    assert out.getvalue() == serial_bytes()


def serial_bytes() -> bytes:
    out = io.BytesIO()
    with mock.patch.object(metrics, "_usable_cpus", lambda: 1):
        metrics.export(TRACE, "json", out)
    return out.getvalue()


def test_failed_child_raises_oserror(failing_child):
    with pytest.raises(OSError, match="exited with status 1"):
        metrics.export(TRACE, "json", io.BytesIO())
    assert_no_children()


def test_failed_child_is_one_cli_error(failing_child, tmp_path, capfd):
    config = tmp_path / "profile.json"
    config.write_text(json.dumps(PROFILE))
    argv = ["run", "--config", str(config), "--format", "json", "--out", str(tmp_path / "t.json")]
    assert main(argv) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert_no_children()


# Runs the CLI with the writer forking on two CPUs; argv follows the script.
CLI = """\
import sys
from chsim import metrics
from chsim.cli import main
metrics._FORK_MIN_CHANGED = 1
metrics._usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def test_stdout_trace_matches_file_trace(tmp_path):
    # the head of the trace sits in stdout's buffer when the child is forked
    config = tmp_path / "profile.json"
    config.write_text(json.dumps(PROFILE))
    argv = [sys.executable, "-c", CLI, "run", "--config", str(config), "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = tmp_path / "trace.json"
    to_file = subprocess.run(argv + ["--out", str(out)], env=env, capture_output=True, timeout=120)
    to_stdout = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert (to_file.returncode, to_file.stderr) == (0, b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert to_stdout.stdout == out.read_bytes()
    assert json.loads(to_stdout.stdout)["residuals"] == TRACE.residual_log.tolist()
