"""Shared headings: one seed's mobility steps, kept once for the runs of
that seed and speed, give each run the trace it gets alone, whether a
block lies inside the kept steps, straddles their end or lies past it;
and a sweep, which shares them, exports the bytes of its runs made
alone."""

import io

import numpy as np
import pytest

from chsim import arena
from chsim.arena import Headings
from chsim.cli import main, parse_args, plan_runs
from chsim.config import ArenaConfig, SimConfig
from chsim.metrics import export, summarize
from chsim.simulator import Draws, run

from reference_engine import reference_run

# 300 frames of 10, 30 and 190 nodes: one block of 3 000 and one of 9 000
# steps, then 80-frame blocks of 15 200.  With 20 000 steps kept, the
# 190-node run reads its first block inside them (the 9 000 kept by the
# runs before it and 6 200 it keeps), straddles their end with its second
# and reads its last two past it.
NODES = (10, 30, 190)
KEPT = 20_000


def _json(trace) -> bytes:
    out = io.BytesIO()
    export(trace, "json", out)
    return out.getvalue()


def _config(nodes, speed, residuals=False, frames=300):
    return SimConfig(arena=ArenaConfig(node_count=nodes, seed=7), cluster_count=5,
                     mobility_speed=speed, max_frames=frames, record_residuals=residuals)


@pytest.mark.parametrize("speed, residuals", [
    (1.0, False),  # few coordinates reach a wall: walked blocks
    (800.0, False),  # every coordinate folds: row-folded blocks
    (1.0, True),
], ids=["walk", "fold", "walk-residuals"])
def test_shared_runs_export_the_bytes_of_lone_runs(monkeypatch, speed, residuals):
    monkeypatch.setattr(arena, "_KEPT_STEPS", KEPT)
    reads = []
    steps = Headings.steps

    def recording_steps(headings, frame, frames, nodes):
        reads.append((frame * nodes, (frame + frames) * nodes))
        return steps(headings, frame, frames, nodes)

    monkeypatch.setattr(Headings, "steps", recording_steps)
    cfgs = [_config(nodes, speed, residuals) for nodes in NODES]
    draws = Draws()
    _, headings = draws.of(cfgs[0])
    shared = [_json(run(cfg, draws)) for cfg in cfgs]  # in the sweep's order
    assert reads == [(0, 3_000), (0, 9_000),
                     (0, 15_200), (15_200, 30_400), (30_400, 45_600), (45_600, 57_000)]
    assert headings._filled == len(headings._kept) == KEPT
    for cfg, got in zip(cfgs, shared):
        assert got == _json(run(cfg)) == _json(reference_run(cfg))


@pytest.mark.parametrize("change", [{"seed": 8}, {"mobility_speed": 2.0}],
                         ids=["seed", "mobility_speed"])
def test_headings_made_for_another_run_are_refused(change):
    # Draws hands the run fresh headings of its own key, not the headings held
    draws = Draws()
    run(_config(30, 1.0), draws)
    headings = draws.headings
    other = SimConfig(arena=ArenaConfig(node_count=30, seed=change.get("seed", 7)),
                      cluster_count=5, mobility_speed=change.get("mobility_speed", 1.0),
                      max_frames=300)
    assert _json(run(other, draws)) == _json(run(other))
    assert draws.headings is not headings and draws.of(other)[1] is draws.headings


def test_node_count_and_policy_do_not_change_the_headings():
    draws = Draws()
    run(_config(30, 1.0), draws)
    headings = draws.headings
    other = SimConfig(arena=ArenaConfig(node_count=190, seed=7), policy="rrch",
                      mobility_speed=1.0, max_frames=300)
    assert draws.of(other)[1] is headings
    assert _json(run(other, draws)) == _json(run(other))


def test_kept_steps_stop_at_the_bound():
    # 190 nodes over 400 frames ask for 76 000 steps, past the 65 536 kept
    cfg = _config(190, 1.0, frames=400)
    draws = Draws()
    _, headings = draws.of(cfg)
    run(cfg, draws)
    assert headings._filled == arena._KEPT_STEPS == 1 << 16
    assert headings._kept.nbytes == 1 << 20
    # the kept steps are read-only views: a run cannot write into them
    view = headings.steps(0, 1, 190)
    assert np.shares_memory(view, headings._kept) and not view.flags.writeable


def test_steps_do_not_depend_on_the_order_of_reads(monkeypatch):
    # 30 nodes keep 10 frames' steps; frames 5..20 straddle their end and
    # 20..40 lie past it, read in order, then out of order and twice
    monkeypatch.setattr(arena, "_KEPT_STEPS", 300)
    cfg = _config(30, 1.0)
    blocks = [(0, 5), (5, 15), (20, 10), (30, 10)]
    forward = Headings(cfg)
    want = [forward.steps(frame, frames, 30).copy() for frame, frames in blocks]
    shuffled = Headings(cfg)
    for i in (3, 2, 1, 3, 0, 2):
        assert shuffled.steps(*blocks[i], 30).tobytes() == want[i].tobytes()
    whole = np.empty((40, 30, 2))
    arena._draw_steps(arena.substream(7, arena.MOBILITY), 1.0, whole)
    assert np.concatenate(want).tobytes() == whole.tobytes()


def test_still_runs_draw_and_keep_nothing():
    draws = Draws()
    run(_config(30, 0.0), draws)
    assert draws.headings._filled == 0 and draws.headings._rng is None
    assert draws.headings._kept is None


@pytest.mark.parametrize("seeds", [("--seed", "7"), ("--seeds", "7..8")],
                         ids=["one-seed", "two-seeds"])
def test_mobile_sweep_exports_its_runs_made_alone(monkeypatch, tmp_path, seeds):
    # one seed's runs share their headings; two seeds' runs alternate in
    # the plan, so each run begins new ones
    monkeypatch.setattr(arena, "_KEPT_STEPS", KEPT)
    argv = ["sweep", "--mobility", "1.0", "--nodes", "10..190..90", "--clusters", "5",
            "--frames", "300", *seeds, "--format", "json"]
    out = tmp_path / "sweep.json"
    assert main([*argv, "--out", str(out)]) == 0
    alone = io.BytesIO()
    export([summarize(run(cfg)) for cfg in plan_runs(parse_args(argv))], "json", alone)
    assert out.read_bytes() == alone.getvalue()
