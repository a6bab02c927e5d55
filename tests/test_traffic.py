"""Shared traffic: one seed's scenario draws, made once and read by every
policy's run of that seed, give each run the trace it gets alone; and
compare, which shares them, exports the bytes of one summary per run."""

import io
import json
import math

import numpy as np
import pytest

from chsim import metrics
from chsim.cli import main, parse_args, plan_runs
from chsim.config import POLICIES, ArenaConfig, ScenarioConfig, SimConfig
from chsim.metrics import compare, export, outcome, summarize
from chsim.simulator import Draws, Traffic, run

# 40 nodes: blocks of 400 frames (409 rounded down to whole rounds)
SCENARIO2 = dict(arena=ArenaConfig(node_count=40, seed=5), cluster_count=4,
                 scenario=ScenarioConfig(kind="scenario2"), record_residuals=True)


def assert_same_trace(shared, alone):
    for name in ("alive", "packets_cum", "chn_count", "final_residual", "final_consumed",
                 "initial_energy_per_node", "residual_log"):
        a, b = getattr(shared, name), getattr(alone, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name  # bit for bit, -0.0 apart from 0.0
    for name in ("termination", "head_change_frames", "head_change_ids", "reelections"):
        assert getattr(shared, name) == getattr(alone, name), name


def test_each_policy_sees_the_traffic_it_draws_alone():
    # 1013 frames: two whole blocks and a last one of 213 frames
    cfgs = [SimConfig(policy=policy, max_frames=1013, **SCENARIO2) for policy in POLICIES]
    draws = Draws()
    traffic, _ = draws.of(cfgs[0])
    assert traffic.rows == 400
    for cfg in cfgs:
        shared = run(cfg, draws)
        assert len(shared) == 1013 and shared.termination == "max-frames"
        assert_same_trace(shared, run(cfg))
    assert [p.shape[1] for p in traffic._packed] == [400, 400, 213]


def test_a_later_run_draws_blocks_an_earlier_one_never_reached():
    cfgs = [SimConfig(policy=policy, initial_energy=0.05, max_frames=6000, **SCENARIO2)
            for policy in POLICIES]
    alone = {cfg.policy: run(cfg) for cfg in cfgs}
    # shortest run first, so each later run asks for blocks nobody drew yet
    cfgs.sort(key=lambda cfg: len(alone[cfg.policy]))
    first, last = len(alone[cfgs[0].policy]), len(alone[cfgs[-1].policy])
    assert alone[cfgs[0].policy].termination == "all-dead"
    assert math.ceil(first / 400) < math.ceil(last / 400)
    draws = Draws()
    traffic, _ = draws.of(cfgs[0])
    for cfg in cfgs:
        assert_same_trace(run(cfg, draws), alone[cfg.policy])
        assert len(traffic._packed) == math.ceil(len(alone[cfg.policy]) / 400)


class RowPerFrame(Traffic):
    """The same flags, with a row for each frame of a block."""

    def block(self, index):
        return np.repeat(super().block(index), min(self._frames - index * self.rows, self.rows),
                         axis=1)


def test_saturated_traffic_draws_and_keeps_nothing():
    for scenario in (ScenarioConfig(),
                     ScenarioConfig(kind="scenario2", duty_cycle=1.0, event_probability=1.0)):
        saturated = dict(arena=ArenaConfig(node_count=30, seed=2), cluster_count=3,
                         max_frames=777, scenario=scenario, record_residuals=True)
        draws = Draws()
        traffic, _ = draws.of(SimConfig(**saturated))
        # 30 nodes: blocks of 540 frames, so 777 frames take two
        assert traffic.rows == 540
        for index in range(2):
            flags = traffic.block(index)  # one row stands for every frame of the block
            assert flags.dtype == bool and flags.shape == (2, 1, 30) and flags.all()
        for policy in POLICIES:
            cfg = SimConfig(policy=policy, **saturated)
            shared = run(cfg, draws)
            assert_same_trace(shared, run(cfg))
            assert_same_trace(shared, run(cfg, Draws(traffic=RowPerFrame(cfg))))
        assert traffic._packed == []


@pytest.mark.parametrize("change", [
    dict(arena=ArenaConfig(node_count=40, seed=6)),
    dict(arena=ArenaConfig(node_count=41, seed=5)),
    dict(scenario=ScenarioConfig(kind="scenario2", duty_cycle=0.6)),
    dict(scenario=ScenarioConfig(kind="scenario2", event_probability=0.4)),
    dict(scenario=ScenarioConfig(kind="scenario2", frames_per_round=10)),
    dict(max_frames=1000),
], ids=["seed", "node_count", "duty_cycle", "event_probability", "frames_per_round",
        "max_frames"])
def test_traffic_made_for_another_run_is_refused(change):
    # Draws hands the run fresh traffic of its own key, not the traffic held
    draws = Draws()
    first = SimConfig(max_frames=1013, **SCENARIO2)
    run(first, draws)
    traffic = draws.traffic
    other = SimConfig(**{**SCENARIO2, "max_frames": 1013, **change})
    assert_same_trace(run(other, draws), run(other))
    assert draws.traffic is not traffic and draws.of(other)[0] is draws.traffic


def test_policy_mobility_and_energy_do_not_change_the_traffic():
    draws = Draws()
    traffic, _ = draws.of(SimConfig(max_frames=50, **SCENARIO2))
    other = SimConfig(policy="rrch", mobility_speed=2.0, initial_energy=1.0, max_frames=50,
                      **SCENARIO2)
    assert draws.of(other)[0] is traffic
    assert_same_trace(run(other, draws), run(other))


def test_compare_plans_each_seeds_policies_together():
    cfgs = list(plan_runs(parse_args(["compare", "--seeds", "3..5", "--scenario", "2"])))
    assert [(c.arena.seed, c.policy) for c in cfgs] == [
        (seed, policy) for seed in (3, 4, 5) for policy in POLICIES]


def test_outcome_matches_summary():
    for cfg in (SimConfig(initial_energy=0.05, max_frames=3000, **SCENARIO2),
                SimConfig(max_frames=0, **SCENARIO2),
                SimConfig(max_frames=300, **SCENARIO2)):
        trace = run(cfg)
        summary, result = summarize(trace), outcome(trace)
        assert (result.policy, result.scenario, result.seed, result.total_packets,
                result.all_dead_frame, result.lifetime()) == (
            summary.policy, summary.scenario, summary.seed, summary.total_packets,
            summary.all_dead_frame, summary.lifetime())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("config", [
    {"max_frames": 600},
    # every run ends all-dead, each at its own frame
    {"max_frames": 3000, "initial_energy": 0.05},
], ids=["cut-off", "all-dead"])
def test_compare_builds_no_curve_and_exports_the_summaries_bytes(fmt, config, tmp_path,
                                                                 monkeypatch):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(config))
    argv = ["compare", "--scenario", "2", "--seeds", "0..2", "--nodes", "30", "--clusters", "3",
            "--config", str(path), "--format", fmt]
    oracle = io.BytesIO()
    export(compare(summarize(run(cfg)) for cfg in plan_runs(parse_args(argv))), fmt, oracle)

    def no_curve(trace):
        raise AssertionError("compare built a curve")

    monkeypatch.setattr(metrics, "_curve", no_curve)
    out = tmp_path / f"table.{fmt}"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == oracle.getvalue()


def test_unpacked_blocks_are_the_drawn_ones():
    traffic = Traffic(SimConfig(max_frames=1013, **SCENARIO2))
    drawn = [traffic.block(i).copy() for i in range(3)]
    for i, flags in enumerate(drawn):
        again = traffic.block(i)
        assert again.dtype == bool and again.shape == flags.shape == (2, len(flags[0]), 40)
        np.testing.assert_array_equal(again, flags)


def test_a_lone_run_packs_no_block(monkeypatch):
    handed = []
    of = Draws.of

    def recording_of(draws, cfg):
        handed.append(draws)
        return of(draws, cfg)

    monkeypatch.setattr(Draws, "of", recording_of)
    run(SimConfig(max_frames=1013, **SCENARIO2))
    (draws,) = handed
    assert draws.traffic._packed == [] and draws.traffic._next == 3


def test_traffic_that_keeps_nothing_draws_a_block_asked_again_anew():
    cfg = SimConfig(max_frames=1013, **SCENARIO2)
    kept = Traffic(cfg)
    want = [kept.block(i).copy() for i in range(3)]
    lone = Traffic(cfg, keep=False)
    # block 2 first draws the blocks before it; 0 and the second 1 go back
    for i in (2, 0, 1, 1, 2):
        np.testing.assert_array_equal(lone.block(i), want[i])
    assert lone._packed == []
