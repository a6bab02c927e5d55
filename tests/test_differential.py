"""Differential tests: the segment engine exports the same bytes as the
frame-by-frame reference engine it replaced (``reference_engine.py``).

Each case exports both traces as JSON with residuals and compares the
bytes, so a trace that differs anywhere, in length, in a head set or in
the last bit of a residual, fails.  The segment engine's cost matrix,
``_frame_charges``, is also held to a plain loop over frames and heads.
"""

import hashlib
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chsim import simulator
from chsim.arena import _fold_rows
from chsim.cli import main
from chsim.config import ArenaConfig, ControlMessageSizes, EnergyParams, ScenarioConfig, SimConfig
from chsim.energy import (
    _frame_consumption_chn, frame_consumption_chn, head_uplink, sched_energy, tx_to_bs,
)
from chsim.metrics import export
from chsim.network import Network
from chsim.simulator import run

from reference_engine import reference_run

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


DIGESTS = json.loads((Path(__file__).parent / "data" / "scenario1_trace_digests.json").read_text())


def _json(trace) -> bytes:
    out = io.BytesIO()
    export(trace, "json", out)
    return out.getvalue()


def assert_same_trace(cfg: SimConfig):
    assert _json(run(cfg)) == _json(reference_run(cfg))


@pytest.mark.parametrize("cfg", [
    # the last node dies of the election trigger at frame 6580: the trace
    # ends there, not at max_frames
    pytest.param(SimConfig(policy="leach", record_residuals=True), id="leach-all-dead-at-election"),
    # the election trigger kills the last node at frame 360: nobody is
    # left to elect, and the trace ends there
    pytest.param(SimConfig(policy="rrch", arena=ArenaConfig(node_count=2, seed=28),
                           cluster_count=1, initial_energy=0.02, max_frames=4000,
                           scenario=ScenarioConfig(kind="scenario2"), record_residuals=True),
                 id="rrch-all-dead-by-trigger"),
    # a fresh head dies from its own setup charge at frame 4960 and the
    # next frame re-elects its cluster
    pytest.param(SimConfig(arena=ArenaConfig(seed=6), record_residuals=True),
                 id="dchne-head-killed-by-setup"),
    # rrch's head of one cluster, node 104, dies of its setup charge at the
    # round boundary 1760: that frame is a segment of its own, and the next
    # frame dismisses the head and leaves the cluster headless to the round's end
    pytest.param(SimConfig(policy="rrch", arena=ArenaConfig(seed=1), max_frames=1800,
                           record_residuals=True),
                 id="rrch-head-killed-by-setup"),
    # members of a dead head's cluster keep transmitting under a label
    # that no live head has
    pytest.param(SimConfig(policy="leach", arena=ArenaConfig(node_count=12, seed=1),
                           cluster_count=3, initial_energy=0.02, max_frames=300,
                           scenario=ScenarioConfig(frames_per_round=5), record_residuals=True),
                 id="leach-orphaned-cluster-label"),
    # deaths inside rounds under mobility: the round's draws and angles
    # stay aligned after each death
    pytest.param(SimConfig(policy="rrch", arena=ArenaConfig(node_count=13, seed=3),
                           cluster_count=3, initial_energy=0.3, mobility_speed=1.5,
                           scenario=ScenarioConfig(kind="scenario2"), record_residuals=True),
                 id="rrch-mobile-deaths"),
    # frame costs near the float maximum: every node dies in frame 0, and
    # the residual path past that death overflows without a warning
    pytest.param(SimConfig(arena=ArenaConfig(node_count=5), cluster_count=2,
                           energy=EnergyParams(e_radio=1e303), msgs=ControlMessageSizes(0, 0, 0, 0, 0),
                           scenario=ScenarioConfig(frames_per_round=100), max_frames=200,
                           record_residuals=True),
                 id="huge-costs-overflow-past-death"),
    # a round longer than one block of draws (190 nodes: 86 frames)
    pytest.param(SimConfig(arena=ArenaConfig(seed=2), initial_energy=0.3, max_frames=1500,
                           scenario=ScenarioConfig(frames_per_round=400), record_residuals=True),
                 id="dchne-round-over-several-blocks"),
    # one node: its consumed energy is a lone column, which numpy's
    # reduce would sum pairwise rather than frame after frame
    pytest.param(SimConfig(arena=ArenaConfig(node_count=1), cluster_count=1, max_frames=400,
                           scenario=ScenarioConfig(kind="scenario2"), record_residuals=True),
                 id="one-node-network"),
])
def test_named_case_matches_reference(cfg):
    assert_same_trace(cfg)


MOBILE = dict(arena=ArenaConfig(node_count=13, seed=3), cluster_count=3, initial_energy=0.3,
              scenario=ScenarioConfig(kind="scenario2"), record_residuals=True)


@pytest.mark.parametrize("budget, cfg", [
    # 7-frame blocks end inside the 20-frame rounds, and deaths fall in them
    pytest.param(30 * 7, SimConfig(arena=ArenaConfig(node_count=30, seed=4), cluster_count=3,
                                   initial_energy=0.05, max_frames=2000, record_residuals=True),
                 id="blocks-end-mid-round"),
    # one 4000-frame block holds all 86 rounds of a run that is all dead at
    # frame 428
    pytest.param(12 * 4000, SimConfig(policy="rrch", arena=ArenaConfig(node_count=12, seed=5),
                                      cluster_count=3, initial_energy=0.05, max_frames=4000,
                                      scenario=ScenarioConfig(kind="scenario2", frames_per_round=5),
                                      record_residuals=True),
                 id="block-spans-many-rounds"),
    # 40-frame blocks (50 rounded down to whole rounds): the election in
    # the middle of a block sees the positions of the path row before it
    pytest.param(13 * 50, SimConfig(mobility_speed=1.5, **MOBILE), id="mobile-1.5"),
    pytest.param(13 * 50, SimConfig(policy="leach", mobility_speed=800.0, **MOBILE),
                 id="mobile-800"),
    # every node is dead by frame 24 of a 300-frame block
    pytest.param(12 * 300, SimConfig(policy="leach", arena=ArenaConfig(node_count=12, seed=1),
                                     cluster_count=3, initial_energy=0.02, max_frames=300,
                                     scenario=ScenarioConfig(frames_per_round=5),
                                     record_residuals=True),
                 id="all-dead-mid-block"),
    # the head killed by its setup charge at frame 4960 (see above), in the
    # middle of a 300-frame block
    pytest.param(190 * 300, SimConfig(arena=ArenaConfig(seed=6), record_residuals=True),
                 id="head-killed-by-setup-mid-block"),
])
def test_block_budget_matches_reference(budget, cfg, monkeypatch):
    monkeypatch.setattr(simulator, "_BLOCK_ENTRIES", budget)
    assert_same_trace(cfg)


@pytest.mark.parametrize("cfg", [
    pytest.param(SimConfig(policy="leach", arena=ArenaConfig(node_count=12, seed=1),
                           cluster_count=3, initial_energy=0.02, max_frames=300,
                           scenario=ScenarioConfig(frames_per_round=5), record_residuals=True),
                 id="all-dead"),
    pytest.param(SimConfig(arena=ArenaConfig(node_count=30, seed=9), cluster_count=3,
                           max_frames=333, scenario=ScenarioConfig(frames_per_round=7),
                           record_residuals=True),
                 id="max-frames"),
])
def test_trace_columns_grown_past_their_first_room_match_reference(cfg, monkeypatch):
    # the int columns start with room for 5 frames and double as frames are
    # run; the residual rows go to a sink that grows by itself
    monkeypatch.setattr(simulator, "_FIRST_ROWS", 5)
    assert_same_trace(cfg)
    assert len(run(cfg)) > 5


def test_fast_mobile_deaths_match_reference(monkeypatch):
    # `--mobility 100` in a 350 m arena: all 60 coordinates reach a wall
    # early in each 540-frame block, so the block is folded row by row;
    # nodes die inside rounds and dchne re-elects their clusters, so the
    # segments of a round price different heads' uplinks
    cfg = SimConfig(arena=ArenaConfig(node_count=30, seed=7), cluster_count=3, initial_energy=0.3,
                    mobility_speed=100.0, max_frames=1500,
                    scenario=ScenarioConfig(kind="scenario2"), record_residuals=True)
    folds = []
    monkeypatch.setattr("chsim.arena._fold_rows",
                        lambda *args: folds.append(args) or _fold_rows(*args))
    trace = run(cfg)
    assert len(folds) == 2 and trace.termination == "all-dead"
    deaths = np.flatnonzero(np.diff(trace.alive, prepend=cfg.arena.node_count) < 0)
    assert np.count_nonzero(deaths % cfg.scenario.frames_per_round) > 10
    assert len(trace.reelections) > 10
    assert _json(trace) == _json(reference_run(cfg))


def test_named_cases_reach_their_pitfalls():
    trace = run(SimConfig(policy="leach"))
    assert (len(trace), trace.termination) == (6581, "all-dead")
    assert trace.alive[-2] > 0
    trace = run(SimConfig(policy="rrch", arena=ArenaConfig(node_count=2, seed=28), cluster_count=1,
                          initial_energy=0.02, max_frames=4000,
                          scenario=ScenarioConfig(kind="scenario2")))
    assert (len(trace), trace.termination, trace.chn_count[-1]) == (361, "all-dead", 0)
    # node 52, elected at the round boundary 4960, died of its setup charge
    assert (4961, 2, 69) in run(SimConfig(arena=ArenaConfig(seed=6))).reelections
    trace = run(SimConfig(policy="rrch", arena=ArenaConfig(seed=1), max_frames=1800,
                          record_residuals=True))
    assert trace.residual_log[1759, 104] > 0.0 and trace.residual_log[1760, 104] == 0.0
    assert trace.alive[1760] == trace.alive[1759] - 1
    assert 104 not in trace.head_change_ids[trace.head_change_frames.index(1760)]
    assert run(SimConfig(arena=ArenaConfig(node_count=1), cluster_count=1, max_frames=400,
                         scenario=ScenarioConfig(kind="scenario2"))).alive[-1] == 1
    trace = run(SimConfig(policy="leach", arena=ArenaConfig(node_count=12, seed=1), cluster_count=3,
                          initial_energy=0.02, max_frames=300,
                          scenario=ScenarioConfig(frames_per_round=5)))
    assert (len(trace), trace.termination) == (24, "all-dead")


@pytest.mark.parametrize("seed", sorted(DIGESTS["sha256"]))
def test_scenario1_trace_matches_recorded_digest(seed, tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "trace.json"
    config.write_text(json.dumps(DIGESTS["config"]))
    argv = ["run", "--format", "json", "--config", str(config), "--seed", seed, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS["sha256"][seed]


RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))


@st.composite
def small_configs(draw):
    """A config and a block budget: blocks of one frame up to many rounds."""
    nodes = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["scenario1", "scenario2"]))
    budget = draw(st.integers(1, 2000))
    return budget, SimConfig(
        arena=ArenaConfig(node_count=nodes, seed=draw(st.integers(0, 2**16))),
        scenario=ScenarioConfig(
            kind=kind,
            frames_per_round=draw(st.integers(1, 7)),
            # the duty cycle must be positive; 1e-12 keeps every node asleep
            duty_cycle=draw(RATES.map(lambda p: p or 1e-12)),
            event_probability=draw(RATES),
        ),
        policy=draw(st.sampled_from(["dchne", "leach", "rrch"])),
        cluster_count=draw(st.integers(1, nodes)),
        max_frames=draw(st.integers(0, 400)),
        # low enough that election charges kill heads and members; 5e-6 J
        # is below the trigger's charge, so frame 0 ends the run
        initial_energy=draw(st.sampled_from([5e-6, 1e-5, 5e-4, 2e-3, 0.01, 0.05, 0.3])),
        # 800 m/frame is over twice the 350 m arena: the fold's modulo branch
        mobility_speed=draw(st.sampled_from([0.0, 1.5, 40.0, 800.0])),
        record_residuals=True,
    )


@settings(max_examples=150)
@given(small_configs())
def test_small_configs_match_reference(case):
    budget, cfg = case
    with mock.patch.object(simulator, "_BLOCK_ENTRIES", budget):
        assert_same_trace(cfg)


MEMBER_TX = 1e-5
CHARGE_ARGS = (MEMBER_TX, 4000, 1, EnergyParams())  # member_tx, d_size, c, params


def frame_charges(net, awake, events, r_bs):
    """``_frame_charges`` at base-station distances ``r_bs``, with the
    live heads' uplink costs computed from their columns as ``run()``
    does."""
    member_tx, d_size, c, params = CHARGE_ARGS
    alive = net.alive
    heads = np.nonzero(net.head & alive)[0]
    uplink = head_uplink(d_size, r_bs[..., heads], len(net), c, params)
    return simulator._frame_charges(net, alive, heads, awake, awake & events, uplink,
                                    member_tx, d_size, params)


def loop_charges(net, awake, events, r_bs):
    """``_frame_charges`` as a plain loop over frames and live heads."""
    k, s = awake.shape
    r_rows = np.broadcast_to(r_bs, (k, s))
    member_tx, d_size, c, params = CHARGE_ARGS
    alive = net.alive
    charges = np.zeros((k, s))
    delivered = np.zeros(k, dtype=np.int64)
    for f in range(k):
        senders = [i for i in range(s) if alive[i] and not net.head[i] and net.cluster[i] >= 0
                   and awake[f, i] and events[f, i]]
        charges[f, senders] = member_tx
        for h in range(s):
            if not (net.head[h] and alive[h]):
                continue
            inbound = sum(1 for i in senders if net.cluster[i] == net.cluster[h])
            if awake[f, h] and (inbound or events[f, h]):
                charges[f, h] = frame_consumption_chn(
                    np.array([inbound]), d_size, r_rows[f, [h]], s, c, params
                )[0]
                delivered[f] += inbound + int(events[f, h])
    return charges, delivered


def assert_charges_match_loop(net, awake, events, r_bs):
    charges, delivered = frame_charges(net, awake, events, r_bs)
    expected_charges, expected_delivered = loop_charges(net, awake, events, r_bs)
    np.testing.assert_array_equal(charges, expected_charges)
    np.testing.assert_array_equal(delivered, expected_delivered)
    assert delivered.dtype == np.int64


def hand_network(clusters, heads, dead):
    net = Network(np.zeros((len(clusters), 2)), 1.0)
    net.cluster[:] = clusters
    net.head[heads] = True
    net.residual[dead] = 0.0
    return net


def test_frame_charges_dead_head_members_match_no_head():
    # head 0 of cluster 0 is dead, yet members 1 and 2 still send; head 3
    # hears member 4 only
    net = hand_network([0, 0, 0, 1, 1], heads=[0, 3], dead=[0])
    awake = events = np.ones((2, 5), dtype=bool)
    r_bs = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    assert_charges_match_loop(net, awake, events, r_bs)
    charges, delivered = frame_charges(net, awake, events, r_bs)
    assert delivered.tolist() == [2, 2]  # member 4's packet and head 3's own
    assert charges[:, 0].tolist() == [0.0, 0.0]
    assert (charges[:, [1, 2, 4]] == MEMBER_TX).all()


def test_frame_charges_with_no_live_head():
    net = hand_network([0, 0, 1, -1], heads=[0, 2], dead=[0, 2])
    awake = events = np.ones((3, 4), dtype=bool)
    charges, delivered = frame_charges(net, awake, events, np.ones(4))
    assert delivered.tolist() == [0, 0, 0]
    assert charges.tolist() == [[0.0, MEMBER_TX, 0.0, 0.0]] * 3
    assert_charges_match_loop(net, awake, events, np.ones(4))


@st.composite
def charge_cases(draw):
    """A network of up to 12 nodes, in any mix of dead, headless, unclustered
    and head nodes, with ``k`` frames of draws and static or per-frame
    base-station distances."""
    s = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    flags = st.lists(st.booleans(), min_size=s, max_size=s)
    net = hand_network(draw(st.lists(st.integers(-1, 3), min_size=s, max_size=s)),
                       heads=draw(flags), dead=draw(flags))
    draws = st.lists(st.booleans(), min_size=k * s, max_size=k * s)
    awake = np.array(draw(draws)).reshape(k, s)
    events = np.array(draw(draws)).reshape(k, s)
    shape = draw(st.sampled_from([(s,), (k, s)]))
    size = len(awake.flat) if len(shape) == 2 else s
    r_bs = np.array(draw(st.lists(st.floats(0.0, 500.0), min_size=size, max_size=size)))
    return net, awake, events, r_bs.reshape(shape)


@settings(max_examples=300)
@given(charge_cases())
def test_frame_charges_match_loop(case):
    assert_charges_match_loop(*case)


def one_expression(n, d, r, s, c, p):
    """A head's frame energy as one expression, the form ``run()`` charged
    before the uplink was split out and computed once per run or block."""
    per_member = d * (p.e_radio + p.e_agg)
    return n * per_member + (sched_energy(d, s, c, p) + d * p.e_radio + d * p.e_mh * r**4)


@st.composite
def head_frames(draw):
    """Inbound counts and base-station distances of ``(S,)`` or ``(k, S)``
    nodes, a subset of them as heads, and the run's constants."""
    s = draw(st.integers(1, 190))
    shape = draw(st.sampled_from([(s,), (draw(st.integers(1, 80)), s)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rng.integers(0, s + 1, size=shape)
    # distances out to a corner far from the base station, and exactly 0
    r = np.where(rng.random(shape) < 0.1, 0.0, rng.uniform(0.0, 500.0, size=shape))
    heads = np.flatnonzero(rng.random(s) < draw(st.floats(0.0, 1.0)))
    params = EnergyParams(e_mh=draw(st.sampled_from([EnergyParams().e_mh, 1e-3, 0.0])))
    d = draw(st.sampled_from([0, 1, 200, 4000, 1 << 20]))
    return n, d, r, s, draw(st.integers(1, s)), params, heads


@settings(max_examples=300)
@given(head_frames())
def test_head_uplink_split_matches_one_expression(case):
    n, d, r, s, c, p, heads = case
    expected = one_expression(n, d, r, s, c, p).view(np.int64)
    uplink = head_uplink(d, r, s, c, p)
    per_member = d * (p.e_radio + p.e_agg)
    np.testing.assert_array_equal((n * per_member + uplink).view(np.int64), expected)
    np.testing.assert_array_equal(_frame_consumption_chn(n, d, uplink, p).view(np.int64), expected)
    np.testing.assert_array_equal(frame_consumption_chn(n, d, r, s, c, p).view(np.int64), expected)
    # run() prices only the heads' columns, as their columns of every node's uplink
    head_only = head_uplink(d, r[..., heads], s, c, p)
    assert head_only.tobytes() == uplink[..., heads].tobytes()
    np.testing.assert_array_equal(
        _frame_consumption_chn(n[..., heads], d, head_only, p).view(np.int64),
        one_expression(n[..., heads], d, r[..., heads], s, c, p).view(np.int64),
    )


# Energies, coefficients and data sizes: signed zeros, subnormals and
# large finite values, whose products and sums may overflow to inf
NON_NEGATIVE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=True),
)
# Distances up to 1e75, whose fourth power stays within a float
DISTANCES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 1e75))


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


@settings(max_examples=1000)
@given(NON_NEGATIVE, DISTANCES, NON_NEGATIVE, NON_NEGATIVE, NON_NEGATIVE,
       st.integers(1, 50), st.integers(0, 500))
@example(-0.0, 0.0, 40e-9, 1.1e-15, 40e-9, 10, 180)  # a -0.0 uplink: not 0.0
@example(1.7976931348623157e308, 1e75, 1.7976931348623157e308, 1.7976931348623157e308,
         1.7976931348623157e308, 1, 500)  # every term overflows
@example(5e-324, 5e-324, 5e-324, 5e-324, 5e-324, 1, 0)
def test_shared_uplink_body_keeps_the_bits_of_each_expression(d, r, e_radio, e_mh, e_sched, c, extra):
    p, s = EnergyParams(e_radio=e_radio, e_mh=e_mh, e_sched=e_sched), c + extra
    assert float_bits(tx_to_bs(d, r, p)) == float_bits(d * e_radio + d * e_mh * r**4)
    expected = sched_energy(d, s, c, p) + d * e_radio + d * e_mh * r**4
    assert float_bits(head_uplink(d, r, s, c, p)) == float_bits(expected)
