"""Runs that share one Draws, in any order, each export the bytes of their
lone run: a run whose key differs from the draws held gets fresh ones, a
run that comes back to a key after another replaced it draws that key's
stream again, and its mobility steps read inside, across and past the
kept steps, whatever the reads before them."""

import io

import pytest

from chsim import arena
from chsim.config import POLICIES, ArenaConfig, ScenarioConfig, SimConfig
from chsim.metrics import export
from chsim.simulator import Draws, run

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# 2 000 kept steps hold 200 frames of 10 nodes and 66 of 30, so the one
# block of a run's up to 300 frames may lie inside them, straddle their
# end or, once they are filled, lie mostly past it.
KEPT = 2_000


@st.composite
def configs(draw):
    scenario = ScenarioConfig(kind=draw(st.sampled_from(("scenario1", "scenario2"))),
                              frames_per_round=draw(st.sampled_from((10, 20))))
    return SimConfig(arena=ArenaConfig(node_count=draw(st.sampled_from((10, 30))),
                                       seed=draw(st.sampled_from((1, 2)))),
                     scenario=scenario, policy=draw(st.sampled_from(POLICIES)),
                     cluster_count=5, max_frames=draw(st.integers(0, 300)),
                     initial_energy=0.05, mobility_speed=draw(st.sampled_from((0.0, 1.0, 800.0))),
                     record_residuals=True)


def _json(trace) -> bytes:
    out = io.BytesIO()
    export(trace, "json", out)
    return out.getvalue()


@settings(max_examples=60)
@given(cfgs=st.lists(configs(), min_size=2, max_size=6))
def test_any_sequence_of_runs_through_one_draws_gives_each_its_lone_trace(cfgs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arena, "_KEPT_STEPS", KEPT)
        draws = Draws()
        shared = [_json(run(cfg, draws)) for cfg in cfgs]
        assert shared == [_json(run(cfg)) for cfg in cfgs]
