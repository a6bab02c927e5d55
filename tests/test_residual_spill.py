"""A JSON trace that records residuals streams them through a spill file.

``chsim run --format json`` with ``record_residuals`` hands ``run()`` an
unnamed temporary file (``metrics.residual_spill``), beside ``--out``
where it can be, and the run writes each segment's residual rows to it
instead of holding them; the export reads them back a block at a time.
These tests check that the spilled rows are the held log's bits, that
the streamed export is byte for byte the export of ``run(cfg)``, where
the spill goes, and that the CLI's memory no longer grows with the
horizon.
"""

import dataclasses
import io
import json
import os
import stat
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chsim import cli, metrics
from chsim.config import config_from_dict
from chsim.simulator import SpilledRows, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORD_RESIDUALS = PERFBENCH / "record_residuals.json"

SCENARIO1_ALL_DEAD = {"arena": {"node_count": 20, "seed": 3}, "cluster_count": 2,
                      "initial_energy": 0.3, "max_frames": 4000, "record_residuals": True}
SCENARIO2 = {"scenario": {"kind": "scenario2"}, "arena": {"node_count": 40, "seed": 5},
             "cluster_count": 4, "max_frames": 900, "record_residuals": True}
MOBILE = {"scenario": {"kind": "scenario2"}, "arena": {"node_count": 30, "seed": 6},
          "cluster_count": 3, "max_frames": 600, "mobility_speed": 2.0,
          "record_residuals": True}
# residuals that fall below 1e-4 before their nodes die: json.dumps writes those blocks
TINY = {"scenario": {"kind": "scenario2"}, "arena": {"node_count": 20, "seed": 3},
        "cluster_count": 2, "initial_energy": 1e-3, "max_frames": 4000,
        "record_residuals": True}
PROFILES = {"scenario1-all-dead": SCENARIO1_ALL_DEAD, "scenario2": SCENARIO2,
            "mobile": MOBILE, "below-1e-4": TINY}


def held_export(profile: dict) -> bytes:
    """The export of ``run(cfg)``, whose residual log is one array."""
    out = io.BytesIO()
    metrics.export(run(config_from_dict(profile)), "json", out)
    return out.getvalue()


@pytest.fixture
def spill_dirs(monkeypatch):
    """The ``dir`` of every temporary file made through ``tempfile.TemporaryFile``."""
    made = []
    real = tempfile.TemporaryFile

    def recording(*args, dir=None, **kwargs):
        made.append(dir)
        return real(*args, dir=dir, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    return made


@pytest.fixture
def streamed_logs(monkeypatch):
    """The type of the residual log of every trace the CLI's runs return."""
    kinds = []
    real_run = cli.run

    def spy(cfg, *args, **kwargs):
        trace = real_run(cfg, *args, **kwargs)
        kinds.append(type(trace.residual_log))
        return trace

    monkeypatch.setattr(cli, "run", spy)
    return kinds


def cli_run(tmp_path, profile: dict, *out) -> int:
    config = tmp_path / "profile.json"
    config.write_text(json.dumps(profile))
    return cli.main(["run", "--config", str(config), "--format", "json", *out])


# -- the spilled rows ------------------------------------------------------


@pytest.mark.parametrize("profile", [
    pytest.param({**SCENARIO2, "max_frames": 0}, id="no-frames"),
    pytest.param({**SCENARIO2, "max_frames": 1}, id="one-frame"),
    *(pytest.param(p, id=name) for name, p in PROFILES.items()),
])
def test_spilled_rows_are_the_held_log(profile):
    cfg = config_from_dict(profile)
    held = run(cfg)
    with tempfile.TemporaryFile() as spill:
        spill.write(b"kept ahead of the rows")  # the rows start where the file stands
        streamed = run(cfg, spill=spill)
        log = streamed.residual_log
        assert isinstance(log, SpilledRows)
        assert log.shape == held.residual_log.shape and len(log) == len(held)
        rows = np.array(list(log)).reshape(held.residual_log.shape)
        assert rows.tobytes() == held.residual_log.tobytes()
        assert log[3:40].tobytes() == held.residual_log[3:40].tobytes()
        assert log[:].tobytes() == held.residual_log.tobytes()
        for name in ("alive", "packets_cum", "chn_count", "final_residual", "final_consumed"):
            assert getattr(streamed, name).tobytes() == getattr(held, name).tobytes(), name
        assert (streamed.termination, streamed.head_change_ids, streamed.reelections) == (
            held.termination, held.head_change_ids, held.reelections)


def test_spilled_rows_read_only_runs_of_rows_from_an_open_whole_file():
    with tempfile.TemporaryFile() as spill:
        log = run(config_from_dict(SCENARIO2), spill=spill).residual_log
        with pytest.raises(ValueError, match="consecutive"):
            log[::2]
        spill.truncate(8 * log.shape[1] * (len(log) - 1))  # the last row lost
        assert len(log[: len(log) - 1]) == len(log) - 1
        with pytest.raises(OSError, match="ends before row"):
            log[len(log) - 2 :]
    with pytest.raises(ValueError):  # the file is closed
        log[:1]


def test_benchmark_log_check_reads_every_spilled_row():
    # perfbench's invariant check iterates the residual log of the trace
    # run() returns; a NaN in the last spilled row must reach it
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        from layers import invariant_problems

    with tempfile.TemporaryFile() as spill:
        trace = run(config_from_dict(SCENARIO2), spill=spill)
        assert invariant_problems(trace) == []
        os.pwrite(spill.fileno(), np.array([np.nan]).tobytes(), 8 * trace.residual_log.shape[1]
                  * len(trace) - 8)
        assert invariant_problems(trace) == ["non-finite residual in the residual log"]


# -- the streamed CLI export is the held export, byte for byte ------------


@pytest.mark.parametrize("name", PROFILES)
def test_streamed_file_export_matches_the_held_export(name, tmp_path, spill_dirs,
                                                      streamed_logs):
    out = tmp_path / "trace.json"
    assert cli_run(tmp_path, PROFILES[name], "--out", str(out)) == 0
    assert streamed_logs == [SpilledRows]
    assert spill_dirs == [str(tmp_path)]  # beside the output
    assert out.read_bytes() == held_export(PROFILES[name])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json", "trace.json"]


def test_all_dead_profile_dies_in_many_one_row_segments():
    # a segment ends with the frame of its first death, and every frame
    # once nobody is alive is a segment of its own
    trace = run(config_from_dict(SCENARIO1_ALL_DEAD))
    assert trace.termination == "all-dead"
    assert np.count_nonzero(np.diff(trace.alive)) > 5


def test_tiny_residuals_go_through_both_encoders(monkeypatch, tmp_path):
    # two rows a block: some blocks hold a residual below 1e-4, some do not
    monkeypatch.setattr(metrics, "_JSON_BLOCK_ENTRIES", 2 * TINY["arena"]["node_count"])
    log = run(config_from_dict(TINY)).residual_log
    tiny = ((log > 0.0) & (log < 1e-4)).any(axis=1)
    blocks = tiny[: len(tiny) // 2 * 2].reshape(-1, 2).any(axis=1)
    assert blocks.any() and not blocks.all()
    out = tmp_path / "trace.json"
    assert cli_run(tmp_path, TINY, "--out", str(out)) == 0
    assert out.read_bytes() == held_export(TINY)


def test_streamed_stdout_export_matches_the_held_export(tmp_path, capsysbinary, spill_dirs,
                                                        streamed_logs):
    assert cli_run(tmp_path, SCENARIO2) == 0
    assert streamed_logs == [SpilledRows]
    assert spill_dirs == [None]  # the default temporary directory
    assert capsysbinary.readouterr().out == held_export(SCENARIO2)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_streamed_fifo_export_matches_the_held_export(tmp_path, spill_dirs, streamed_logs):
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    assert cli_run(tmp_path, MOBILE, "--out", str(fifo)) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert streamed_logs == [SpilledRows]
    assert spill_dirs == [None]  # a FIFO is written in place
    assert received == [held_export(MOBILE)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json", "trace.fifo"]


def test_csv_and_unrecorded_runs_spill_nothing(tmp_path, spill_dirs, streamed_logs):
    config = tmp_path / "profile.json"
    config.write_text(json.dumps(SCENARIO2))
    out = str(tmp_path / "trace.csv")
    assert cli.main(["run", "--config", str(config), "--out", out]) == 0
    # the CSV writes only the curve, so its run records no residuals
    assert streamed_logs == [type(None)]
    oracle = io.BytesIO()
    metrics.export(run(config_from_dict(SCENARIO2)), "csv", oracle)
    assert Path(out).read_bytes() == oracle.getvalue()
    config.write_text(json.dumps({**SCENARIO2, "record_residuals": False}))
    assert cli.main(["run", "--config", str(config), "--format", "json", "--out", out]) == 0
    assert spill_dirs == [] and streamed_logs == [type(None)] * 2


# -- where the spill goes ---------------------------------------------------


def test_spill_beside_a_regular_or_new_file(tmp_path, spill_dirs):
    existing, new = tmp_path / "old.json", tmp_path / "new.json"
    existing.write_bytes(b"old")
    for out in (existing, new, str(new)):
        with metrics.residual_spill(out) as spill:
            spill.write(b"rows")
            assert os.fstat(spill.fileno()).st_dev == tmp_path.stat().st_dev
            assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]  # no name
    assert spill_dirs == [str(tmp_path)] * 3


def test_spill_beside_a_bare_file_name_goes_in_the_working_directory(tmp_path, monkeypatch,
                                                                      spill_dirs):
    monkeypatch.chdir(tmp_path)
    with metrics.residual_spill("trace.json"):
        pass
    assert spill_dirs == [os.curdir]


def test_spill_for_stdout_or_an_in_place_destination_goes_to_the_default(tmp_path,
                                                                        spill_dirs):
    target = tmp_path / "target.json"
    target.write_bytes(b"")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    destinations = [None, link, tmp_path]  # stdout, a symlink, a directory
    if hasattr(os, "mkfifo"):
        os.mkfifo(tmp_path / "trace.fifo")
        destinations.append(tmp_path / "trace.fifo")
    for out in destinations:
        with metrics.residual_spill(out):
            pass
    assert spill_dirs == [None] * len(destinations)


def test_spill_goes_to_the_default_where_none_can_be_made_beside(tmp_path, monkeypatch):
    made = []
    real = tempfile.TemporaryFile

    def refusing(*args, dir=None, **kwargs):
        made.append(dir)
        if dir is not None:
            raise PermissionError(13, "Permission denied", dir)
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", refusing)
    with metrics.residual_spill(tmp_path / "trace.json"):
        pass
    assert made == [str(tmp_path), None]


def test_spill_for_a_missing_directory_goes_to_the_default(tmp_path, spill_dirs):
    absent = tmp_path / "absent"
    with metrics.residual_spill(absent / "trace.json") as spill:
        assert stat.S_ISREG(os.fstat(spill.fileno()).st_mode)
    assert spill_dirs == [str(absent), None]


# -- memory --------------------------------------------------------------


def test_lone_recorded_run_holds_little_more_than_its_rows():
    # scenario1 defaults die long before max_frames: a run that records
    # residuals holds the rows of the frames it ran, not room for more
    cfg = config_from_dict({"record_residuals": True})

    def traced_peak(cfg) -> tuple[int, object]:
        tracemalloc.start()
        try:
            trace = run(cfg)
            return tracemalloc.get_traced_memory()[1], trace
        finally:
            tracemalloc.stop()

    traced_peak(cfg)  # the first call's peak also holds one-time caches
    recorded, trace = traced_peak(cfg)
    unrecorded, _ = traced_peak(dataclasses.replace(cfg, record_residuals=False))
    frames, nodes = trace.residual_log.shape
    assert trace.termination == "all-dead" and frames < cfg.max_frames // 2
    assert recorded - unrecorded < 1.5 * frames * nodes * 8


def test_streamed_run_memory_does_not_grow_with_its_horizon(tmp_path):
    out = tmp_path / "trace.json"

    def traced_peak(frames: int) -> int:
        tracemalloc.start()
        try:
            assert cli.main(["run", "--scenario", "2", "--frames", str(frames), "--seed", "0",
                             "--format", "json", "--config", str(RECORD_RESIDUALS),
                             "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1500)  # the first call's peak also holds one-time caches
    short, long = traced_peak(1500), traced_peak(6000)
    # The run keeps its per-frame columns, 24 bytes a frame, and the export
    # writes every array a block at a time; a held log would add 1 520 bytes
    # a frame, and a column encoded whole by json.dumps about 270.
    assert long - short < (6000 - 1500) * 64
