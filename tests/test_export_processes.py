"""The trace export as a process sees it: the CLI, run as a child
process, writes to stdout what it writes to a file and turns a failed
write into one error, and an export stopped early by its destination
raises at once, writes nothing more and starts no process.  A file
destination is replaced only by a complete export, keeps the mode a
plain ``open`` gives, and a FIFO is written in place.
"""

import io
import json
import os
import stat
import subprocess
import sys
import threading
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


# The CLI with orjson failing from the second block of the residual matrix
# (three 10-frame blocks of PROFILE's 30 frames), as a full disk would.
FAILING_CLI = """
import sys, orjson
from chsim import cli, metrics
metrics._JSON_BLOCK_ENTRIES = 12 * 10
dumps, calls = orjson.dumps, []
def failing(*args, **kwargs):
    calls.append(None)
    if len(calls) > 1:
        raise OSError(28, "No space left on device")
    return dumps(*args, **kwargs)
orjson.dumps = failing
sys.exit(cli.main(sys.argv[1:]))
"""


def run_cli(tmp_path, *args, failing=False) -> subprocess.CompletedProcess:
    """``chsim run`` of PROFILE as a child process, as JSON, plus ``args``;
    with ``failing``, its export fails part way through the matrix."""
    config = tmp_path / "profile.json"
    config.write_text(json.dumps(PROFILE))
    cli = ["-c", FAILING_CLI] if failing else ["-m", "chsim.cli"]
    argv = [sys.executable, *cli, "run", "--config", str(config), "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([*argv, *args], env=env, capture_output=True, timeout=120)


def assert_one_error(child: subprocess.CompletedProcess):
    assert child.returncode == 2
    assert child.stdout == b""
    assert len(child.stderr.splitlines()) == 1
    assert child.stderr.startswith(b"error: ")


def test_export_stopped_early_raises_at_once_and_writes_nothing_more():
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
def test_write_to_a_full_device_is_one_cli_error(tmp_path):
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


def test_export_failing_part_way_leaves_no_file(tmp_path):
    out = tmp_path / "trace.json"
    assert_one_error(run_cli(tmp_path, "--out", str(out), failing=True))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]  # no trace, no temp file


def test_export_failing_part_way_keeps_the_old_file(tmp_path):
    out = tmp_path / "trace.json"
    out.write_bytes(b"the last good trace")
    assert_one_error(run_cli(tmp_path, "--out", str(out), failing=True))
    assert out.read_bytes() == b"the last good trace"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json", "trace.json"]


def test_replaced_file_keeps_the_mode_of_a_plain_open(tmp_path):
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_bytes(b"old")
    kept.chmod(0o604)
    old_umask = os.umask(0o027)
    try:
        metrics.export(TRACE, "json", fresh)
        metrics.export(TRACE, "json", kept)
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640  # 0o666 less the umask
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604  # an existing file's own
    assert kept.read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "kept.json"]


def test_missing_directory_error_names_the_destination(tmp_path):
    out = tmp_path / "absent" / "trace.json"
    with pytest.raises(FileNotFoundError) as err:
        metrics.export(TRACE, "json", out)
    assert err.value.filename == str(out)  # not a temporary file's name


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_destination_is_written_in_place(tmp_path):
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    written = metrics.export(TRACE, "json", fifo)
    reader.join(timeout=60)
    sink = io.BytesIO()
    metrics.export(TRACE, "json", sink)
    assert received == [sink.getvalue()] and written == len(sink.getvalue())
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.fifo"]
