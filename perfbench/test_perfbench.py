"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from types import SimpleNamespace

import numpy as np
import pytest

from layers import COUNT_UNITS, invariant_problems, layer_metrics, layer_tracer
from run import Invoker
from tracer import Span, Tracer, outermost, self_times, totals
from workloads import digest, load_chsim

cli = load_chsim()


def test_self_time_of_a_synthetic_span_tree():
    #   root 0..10
    #   ├── a 1..4
    #   │   └── b 2..3
    #   └── a 5..9
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    t = totals(spans)
    assert (t["a"].calls, t["a"].total_s, t["a"].self_s) == (2, 7.0, 6.0)
    assert t["root"].self_s == 3.0
    assert [s.start for s in outermost(spans, {"a", "b"})] == [1.0, 5.0]


def tiny_argv(tmp_path, *extra):
    return ["compare", "--frames", "300", "--seeds", "0..0", *extra,
            "--out", str(tmp_path / "table.csv")]


def test_wrong_golden_digest_counts_as_a_failure(tmp_path):
    argv = tiny_argv(tmp_path)
    assert cli.main(argv) == 0
    right = Invoker(cli, argv, tmp_path / "table.csv", digest(tmp_path / "table.csv"))
    right.invoke()
    assert right.failures == [] and right.attempted == 1
    wrong = Invoker(cli, argv, tmp_path / "table.csv", "0" * 64)
    wrong.invoke()
    assert len(wrong.failures) == 1 and "digest" in wrong.failures[0]


def traced_counts(argv):
    with layer_tracer() as tracer:
        assert cli.main(argv) == 0
    metrics = layer_metrics(tracer.spans, tracer.absent)
    return {name: value for name, (value, unit) in metrics.items()
            if unit in COUNT_UNITS}


def test_two_traced_runs_give_identical_counts(tmp_path):
    argv = tiny_argv(tmp_path, "--scenario", "1")
    original = cli.run
    first, second = traced_counts(argv), traced_counts(argv)
    assert cli.run is original  # the tracer put the real function back
    assert first == second
    assert first["simulator.frames"] == 900 and first["simulator.runs"] == 3
    assert first["election.outcome_entries"] > 0
    assert first["network.debit.calls"] > 0
    assert first["energy.frame_consumption_chn.calls"] == 0


def test_a_missing_target_is_absent_and_does_not_crash(tmp_path):
    tracer = Tracer({"cli.gone": "chsim.cli:no_such_function",
                     "cli.execute": "chsim.cli:execute",
                     "nowhere": "chsim.no_such_module:f"})
    with tracer:
        assert cli.main(tiny_argv(tmp_path)) == 0
    assert tracer.absent == {"cli.gone", "nowhere"}
    metrics = layer_metrics(tracer.spans, tracer.absent | {"simulator.run"})
    assert "cli.fanout_self_s" in metrics and "simulator.frames" not in metrics


@pytest.mark.parametrize("change, problem", [
    (dict(final_consumed=np.array([1.0, 1.5 + 1e-6])), "energy books"),
    (dict(final_residual=np.array([2.5, np.nan])), "non-finite"),
    (dict(packets_cum=np.array([0, 3, 2])), "packets_cum"),
])
def test_invariant_violations_are_reported(change, problem):
    trace = dict(initial_energy_per_node=np.array([3.5, 3.5]),
                 final_residual=np.array([2.5, 2.0]),
                 final_consumed=np.array([1.0, 1.5]),
                 packets_cum=np.array([0, 2, 2]),
                 residual_log=None)
    assert invariant_problems(SimpleNamespace(**trace)) == []
    found = invariant_problems(SimpleNamespace(**{**trace, **change}))
    assert any(problem in p for p in found)
