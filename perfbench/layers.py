"""chsim's layers as the benchmark sees them: what to wrap, what to keep
from each return value, the run invariants, and the per-layer metrics.

Targets name the functions at the modules their callers resolve them
from; the tracer also wraps every other chsim module global bound to the
same function.  The energy functions are named in ``chsim.energy`` so
that the ones nothing calls (``frame_consumption_*``) report 0 calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from tracer import Span, Totals, Tracer, outermost, totals

ENERGY_FUNCTIONS = (
    "tx_intra",
    "tx_to_bs",
    "rx_cluster",
    "sched_energy",
    "setup_energy_chn",
    "setup_energy_nchn",
    "frame_consumption_chn",
    "frame_consumption_nchn",
)
POLICY_SPANS = ("election.dchne", "election.leach", "election.rrch")
ELECTION_SPANS = POLICY_SPANS + ("election.reelect",)

TARGETS = {
    "cli.execute": "chsim.cli:execute",
    "cli.plan_runs": "chsim.cli:plan_runs",
    "simulator.run": "chsim.cli:run",
    "election.dchne": "chsim.simulator:dchne_elect",
    "election.leach": "chsim.simulator:leach_elect",
    "election.rrch": "chsim.simulator:rrch_elect",
    "election.reelect": "chsim.simulator:dchne_reelect_cluster",
    "election.partition": "chsim.election:geometric_partition",
    "network.debit": "chsim.network:Network.debit",
    "arena.place_nodes": "chsim.simulator:place_nodes",
    "arena.step_mobility": "chsim.simulator:step_mobility",
    "metrics.summarize": "chsim.cli:summarize",
    "metrics.compare": "chsim.cli:compare",
    "metrics.export": "chsim.cli:export",
    **{f"energy.{fn}": f"chsim.energy:{fn}" for fn in ENERGY_FUNCTIONS},
}

_ZERO = Totals(0, 0.0, 0.0)

#: Metrics that must repeat exactly between two traced runs of one input.
COUNT_UNITS = ("count", "bytes")


class RunFacts(NamedTuple):
    """What the benchmark keeps of one simulated run."""

    frames: int
    death_frames: int  # frames in which the alive count dropped
    head_changes: int | None  # None when the trace no longer records them
    problems: tuple[str, ...]  # violated invariants


def invariant_problems(trace) -> list[str]:
    """The energy books balance to 1e-9 J per node, every residual is
    finite, and the cumulative packet count never decreases."""
    problems = []
    initial = np.asarray(trace.initial_energy_per_node, dtype=float)
    residual = np.asarray(trace.final_residual, dtype=float)
    consumed = np.asarray(trace.final_consumed, dtype=float)
    imbalance = float(np.max(np.abs(initial - (residual + consumed)), initial=0.0))
    if not imbalance <= 1e-9:
        problems.append(f"energy books off by {imbalance:.3g} J")
    if not np.isfinite(residual).all():
        problems.append("non-finite final residual")
    log = getattr(trace, "residual_log", None)
    if log is not None and not all(np.isfinite(row).all() for row in log):
        problems.append("non-finite residual in the residual log")
    if np.any(np.diff(np.asarray(trace.packets_cum)) < 0):
        problems.append("packets_cum decreases")
    return problems


def run_facts(trace) -> RunFacts:
    alive = np.asarray(trace.alive)
    start = trace.config.arena.node_count
    changes = getattr(trace, "head_change_frames", None)
    return RunFacts(
        frames=len(alive),
        death_frames=int(np.count_nonzero(np.diff(alive, prepend=start) < 0)),
        head_changes=None if changes is None else len(changes),
        problems=tuple(invariant_problems(trace)),
    )


def outcome_entries(outcome) -> int:
    """Dict entries an election returned; ``run()`` uses none of them."""
    return sum(len(getattr(outcome, attr, None) or ())
               for attr in ("membership", "control_energy_charged"))


REDUCERS = {
    "simulator.run": run_facts,
    "metrics.export": lambda written: int(written or 0),
    **{name: outcome_entries for name in POLICY_SPANS},
}


def run_tracer() -> Tracer:
    """A tracer that only collects the facts of each simulated run."""
    return Tracer({"simulator.run": TARGETS["simulator.run"]},
                  {"simulator.run": run_facts})


def layer_tracer() -> Tracer:
    return Tracer(TARGETS, REDUCERS)


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], absent: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced invocation, name -> (value, unit).

    A metric that needs an absent span, or a run fact the trace no longer
    records, is left out rather than reported as zero.
    """
    stats = totals(spans)

    def get(name):
        return stats.get(name, _ZERO)

    facts = [s.value for s in spans if s.name == "simulator.run"]
    frames = sum(f.frames for f in facts)
    head_changes = [f.head_changes for f in facts]
    run = get("simulator.run")
    elections = outermost(spans, ELECTION_SPANS)
    export_bytes = sum(s.value for s in spans if s.name == "metrics.export")
    export = get("metrics.export")
    rows = [
        ("cli.plan_runs_s", "s", ("cli.plan_runs",), get("cli.plan_runs").total_s),
        ("cli.fanout_self_s", "s", ("cli.execute",), get("cli.execute").self_s),
        ("simulator.frames", "count", ("simulator.run",), frames),
        ("simulator.runs", "count", ("simulator.run",), run.calls),
        ("simulator.step_self_us_per_frame", "us", ("simulator.run",),
         1e6 * _per(run.self_s, frames)),
        ("simulator.death_frames", "count", ("simulator.run",),
         sum(f.death_frames for f in facts)),
    ]
    if None not in head_changes:
        rows.append(("simulator.head_change_ratio", "ratio", ("simulator.run",),
                     _per(sum(head_changes), frames)))
    rows += [
        ("election.share", "ratio", ELECTION_SPANS + ("simulator.run",),
         _per(sum(s.end - s.start for s in elections), run.total_s)),
        ("election.outcome_entries", "count", POLICY_SPANS,
         sum(s.value for s in elections if s.name in POLICY_SPANS)),
        ("network.debit.calls_per_frame", "ratio", ("network.debit", "simulator.run"),
         _per(get("network.debit").calls, frames)),
        ("arena.place_nodes.us", "us", ("arena.place_nodes",),
         1e6 * _per(get("arena.place_nodes").total_s, get("arena.place_nodes").calls)),
        ("metrics.summarize.ms_per_call", "ms", ("metrics.summarize",),
         1e3 * _per(get("metrics.summarize").total_s, get("metrics.summarize").calls)),
        ("metrics.compare.ms", "ms", ("metrics.compare",), 1e3 * get("metrics.compare").total_s),
        ("metrics.export.s", "s", ("metrics.export",), export.total_s),
        ("metrics.export.bytes", "bytes", ("metrics.export",), export_bytes),
        ("metrics.export.mb_per_s", "MB/s", ("metrics.export",),
         _per(export_bytes / 1e6, export.total_s)),
    ]
    per_call = ELECTION_SPANS + ("election.partition", "network.debit", "arena.step_mobility")
    per_call += tuple(f"energy.{fn}" for fn in ENERGY_FUNCTIONS)
    for span in per_call:
        t = get(span)
        rows.append((f"{span}.calls", "count", (span,), t.calls))
        rows.append((f"{span}.us_per_call", "us", (span,), 1e6 * _per(t.total_s, t.calls)))
    return {name: (value, unit) for name, unit, needs, value in rows
            if not absent.intersection(needs)}


def problems_of(spans: list[Span]) -> list[str]:
    """Invariant violations reported by the runs of one invocation."""
    return [p for s in spans if s.name == "simulator.run" for p in s.value.problems]
