"""Metamorphic relations of a run: changes to a config whose effect on
the trace is known without an oracle.  A shorter horizon only cuts the
run; scenario2 at full duty cycle and event probability is scenario1;
and scaling every joule by a power of two scales every residual and
consumed joule exactly, changing no count."""

from dataclasses import fields, replace

import numpy as np
import pytest

from chsim.config import POLICIES, ArenaConfig, EnergyParams, ScenarioConfig, SimConfig
from chsim.simulator import run

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Batteries this small run out within the horizons drawn here, so runs
# see deaths, re-elections and all-dead ends.
ENERGY = 0.05
COLUMNS = ("alive", "packets_cum", "chn_count")
EVENTS = ("head_change_frames", "head_change_ids", "reelections")


@st.composite
def configs(draw, kinds=("scenario1", "scenario2"), speeds=(0.0, 1.0, 800.0)):
    nodes = draw(st.integers(1, 40))
    scenario = ScenarioConfig(kind=draw(st.sampled_from(kinds)),
                              frames_per_round=draw(st.integers(1, 30)))
    return SimConfig(arena=ArenaConfig(node_count=nodes, seed=draw(st.integers(0, 3))),
                     scenario=scenario, policy=draw(st.sampled_from(POLICIES)),
                     cluster_count=draw(st.integers(1, min(nodes, 10))),
                     max_frames=draw(st.integers(0, 300)), initial_energy=ENERGY,
                     mobility_speed=draw(st.sampled_from(speeds)), record_residuals=True)


def _bytes(trace, names):
    """The named fields of ``trace``, each array as its bytes."""
    return [value.tobytes() if isinstance(value, np.ndarray) else value
            for value in (getattr(trace, name) for name in names)]


@settings(max_examples=40)
@given(cfg=configs(), more=st.integers(1, 300))
def test_a_shorter_horizon_only_cuts_the_run(cfg, more):
    short = run(cfg)
    long = run(replace(cfg, max_frames=cfg.max_frames + more))
    n = len(short)
    assert n == min(cfg.max_frames, len(long))  # an all-dead run ends at the same frame
    assert _bytes(short, COLUMNS) == [column[:n].tobytes() for column in
                                      (long.alive, long.packets_cum, long.chn_count)]
    assert short.residual_log.tobytes() == long.residual_log[:n].tobytes()


@settings(max_examples=15)
@given(cfg=configs(kinds=("scenario1",)))
def test_full_rates_in_scenario2_are_scenario1(cfg):
    # scenario1 is scenario2 whose nodes are always awake and always sense
    full = replace(cfg, scenario=ScenarioConfig(
        kind="scenario2", duty_cycle=1.0, event_probability=1.0,
        frames_per_round=cfg.scenario.frames_per_round))
    names = (*COLUMNS, "residual_log", *EVENTS, "final_residual", "final_consumed", "termination")
    assert _bytes(run(full), names) == _bytes(run(cfg), names)


@settings(max_examples=15)
@given(cfg=configs(speeds=(0.0, 1.0)), exponent=st.sampled_from((-2, 1, 10)))
def test_joules_scale_exactly(cfg, exponent):
    # a power of two scales every product and sum of joules without rounding
    factor = 2.0**exponent
    energy = EnergyParams(**{f.name: getattr(cfg.energy, f.name) * factor
                             for f in fields(EnergyParams)})
    base = run(cfg)
    scaled = run(replace(cfg, energy=energy, initial_energy=ENERGY * factor))
    assert _bytes(scaled, (*COLUMNS, *EVENTS)) == _bytes(base, (*COLUMNS, *EVENTS))
    for name in ("residual_log", "final_residual", "final_consumed"):
        assert getattr(scaled, name).tobytes() == (getattr(base, name) * factor).tobytes()
