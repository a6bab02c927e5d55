"""Differential tests: the segment engine exports the same bytes as the
frame-by-frame reference engine it replaced (``reference_engine.py``).

Each case exports both traces as JSON with residuals and compares the
bytes, so a trace that differs anywhere, in length, in a head set or in
the last bit of a residual, fails.
"""

import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from chsim import simulator
from chsim.cli import main
from chsim.config import ArenaConfig, ControlMessageSizes, EnergyParams, ScenarioConfig, SimConfig
from chsim.metrics import export
from chsim.simulator import run

from reference_engine import reference_run

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# Hypothesis caches facts about the code under test; keep them out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir(), "chsim-hypothesis"))

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
    # members of a dead head's cluster keep transmitting under a label
    # above every live head's
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
    # a round longer than one block of draws (190 nodes: 344 frames)
    pytest.param(SimConfig(arena=ArenaConfig(seed=2), initial_energy=0.3, max_frames=1500,
                           scenario=ScenarioConfig(frames_per_round=400), record_residuals=True),
                 id="dchne-round-over-several-blocks"),
])
def test_named_case_matches_reference(cfg):
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
    # the columns start with room for 5 frames and double as frames are run
    monkeypatch.setattr(simulator, "_FIRST_ROWS", 5)
    assert_same_trace(cfg)
    assert len(run(cfg)) > 5


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
    nodes = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["scenario1", "scenario2"]))
    return SimConfig(
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


@settings(max_examples=150, deadline=None, database=None)
@given(small_configs())
def test_small_configs_match_reference(cfg):
    assert_same_trace(cfg)
