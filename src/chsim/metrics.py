"""Run summaries, policy comparison tables, and CSV/JSON export/parsing.

CSV is the plotting interface: an alive-curve export has exactly the
columns ``frame,alive,packets_cum,chn_count`` and any external grapher
can consume it.  JSON mirrors the dataclass structure with snake_case
keys and round-trips summaries exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .config import config_to_dict
from .simulator import SimTrace, network_lifetime

__all__ = [
    "RunSummary",
    "ComparisonRow",
    "AggregateRow",
    "ComparisonTable",
    "GroupingError",
    "summarize",
    "packets_delta",
    "lifetime_delta",
    "compare",
    "export",
    "read_summary_json",
    "read_curve_csv",
]

CURVE_COLUMNS = ("frame", "alive", "packets_cum", "chn_count")


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers and the alive curve of one finished run.

    ``curve`` rows are ``(frame, alive, packets_cum, chn_count)``;
    ``first_death_frame``/``all_dead_frame`` are None when the run ended
    before the corresponding event.
    """

    policy: str
    scenario: str
    seed: int
    nodes: int
    total_packets: int
    first_death_frame: int | None
    all_dead_frame: int | None
    curve: tuple[tuple[int, int, int, int], ...]

    @property
    def alive_curve(self) -> list[tuple[int, int]]:
        return [(frame, alive) for frame, alive, _, _ in self.curve]

    def lifetime(self) -> int:
        """Frames until the last death — or until the run was cut off,
        when nodes were still alive at the end."""
        return self.all_dead_frame if self.all_dead_frame is not None else len(self.curve)


def _curve(trace: SimTrace) -> tuple[tuple[int, int, int, int], ...]:
    """``(frame, alive, packets_cum, chn_count)`` rows of a trace."""
    columns = (trace.alive.tolist(), trace.packets_cum.tolist(), trace.chn_count.tolist())
    return tuple(zip(range(len(trace)), *columns))


def summarize(trace: SimTrace) -> RunSummary:
    """Reduce a trace to its summary; an empty trace yields zeros."""
    cfg = trace.config
    nodes = cfg.arena.node_count
    dead = np.nonzero(trace.alive == 0)[0]
    return RunSummary(
        policy=cfg.policy,
        scenario=cfg.scenario.kind,
        seed=cfg.arena.seed,
        nodes=nodes,
        total_packets=int(trace.packets_cum[-1]) if len(trace) else 0,
        first_death_frame=network_lifetime(trace, nodes),
        all_dead_frame=int(dead[0]) if len(dead) else None,
        curve=_curve(trace),
    )


class GroupingError(ValueError):
    """The summaries handed to compare() do not form valid policy groups."""


@dataclass(frozen=True)
class ComparisonRow:
    """Packet and lifetime advantage of the default policy over one
    baseline, for a single (scenario, seed) environment."""

    scenario: str
    seed: int
    baseline: str
    packets_delta: int
    lifetime_delta: int


@dataclass(frozen=True)
class AggregateRow:
    """Across-seed mean/min/max of one delta metric for one baseline."""

    scenario: str
    baseline: str
    metric: str
    mean: float
    min: int
    max: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]
    aggregates: tuple[AggregateRow, ...]


def packets_delta(a: RunSummary, b: RunSummary) -> int:
    return a.total_packets - b.total_packets


def lifetime_delta(a: RunSummary, b: RunSummary) -> int:
    return a.lifetime() - b.lifetime()


def compare(summaries) -> ComparisonTable:
    """Per-environment deltas of dchne against each baseline, plus
    across-seed aggregates.

    Summaries must group by (scenario, seed) into sets of distinct
    policies that include dchne; anything else raises
    :class:`GroupingError`.
    """
    groups: dict[tuple[str, int], dict[str, RunSummary]] = {}
    for summary in summaries:
        group = groups.setdefault((summary.scenario, summary.seed), {})
        if summary.policy in group:
            raise GroupingError(
                f"duplicate policy {summary.policy!r} for scenario={summary.scenario} "
                f"seed={summary.seed}"
            )
        group[summary.policy] = summary
    rows = []
    for scenario, seed in sorted(groups):
        group = groups[(scenario, seed)]
        if "dchne" not in group:
            raise GroupingError(f"group scenario={scenario} seed={seed} lacks a dchne run")
        baselines = sorted(p for p in group if p != "dchne")
        if not baselines:
            raise GroupingError(
                f"group scenario={scenario} seed={seed} has no baseline to compare against"
            )
        for baseline in baselines:
            rows.append(
                ComparisonRow(
                    scenario=scenario,
                    seed=seed,
                    baseline=baseline,
                    packets_delta=packets_delta(group["dchne"], group[baseline]),
                    lifetime_delta=lifetime_delta(group["dchne"], group[baseline]),
                )
            )
    aggregates = []
    for scenario, baseline in sorted({(r.scenario, r.baseline) for r in rows}):
        cell = [r for r in rows if (r.scenario, r.baseline) == (scenario, baseline)]
        for metric in ("packets_delta", "lifetime_delta"):
            values = [getattr(r, metric) for r in cell]
            aggregates.append(
                AggregateRow(
                    scenario=scenario,
                    baseline=baseline,
                    metric=metric,
                    mean=sum(values) / len(values),
                    min=min(values),
                    max=max(values),
                )
            )
    return ComparisonTable(rows=tuple(rows), aggregates=tuple(aggregates))


def _csv_bytes(obj) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(obj, (RunSummary, SimTrace)):
        writer.writerow(CURVE_COLUMNS)
        writer.writerows(obj.curve if isinstance(obj, RunSummary) else _curve(obj))
    elif isinstance(obj, ComparisonTable):
        writer.writerow(("scenario", "seed", "baseline", "packets_delta", "lifetime_delta"))
        for r in obj.rows:
            writer.writerow((r.scenario, r.seed, r.baseline, r.packets_delta, r.lifetime_delta))
    elif isinstance(obj, (list, tuple)) and all(isinstance(x, RunSummary) for x in obj):
        writer.writerow(
            ("policy", "scenario", "seed", "nodes", "total_packets",
             "first_death_frame", "all_dead_frame", "lifetime")
        )
        for s in obj:
            writer.writerow(
                (s.policy, s.scenario, s.seed, s.nodes, s.total_packets,
                 "" if s.first_death_frame is None else s.first_death_frame,
                 "" if s.all_dead_frame is None else s.all_dead_frame,
                 s.lifetime())
            )
    else:
        raise ValueError(f"cannot export {type(obj).__name__} as csv")
    return out.getvalue().encode()


def _jsonable(obj):
    if isinstance(obj, RunSummary):
        return asdict(obj)
    if isinstance(obj, ComparisonTable):
        return {
            "rows": [asdict(r) for r in obj.rows],
            "aggregates": [asdict(a) for a in obj.aggregates],
        }
    if isinstance(obj, SimTrace):
        return {
            "config": config_to_dict(obj.config),
            "termination": obj.termination,
            "alive": obj.alive.tolist(),
            "packets_cum": obj.packets_cum.tolist(),
            "chn_count": obj.chn_count.tolist(),
            "head_change_frames": list(obj.head_change_frames),
            "head_change_ids": [list(ids) for ids in obj.head_change_ids],
            "reelections": [list(r) for r in obj.reelections],
            "final_residual": obj.final_residual.tolist(),
            "final_consumed": obj.final_consumed.tolist(),
            "residuals": None
            if obj.residual_log is None
            else [r.tolist() for r in obj.residual_log],
        }
    if isinstance(obj, (list, tuple)) and all(isinstance(x, RunSummary) for x in obj):
        return [asdict(s) for s in obj]
    raise ValueError(f"cannot export {type(obj).__name__} as json")


def _json_bytes(obj) -> bytes:
    return (json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n").encode()


def export(obj, fmt: str, destination) -> int:
    """Serialize a trace, summary, summary list or comparison table to
    ``destination`` (a path or a binary file-like) and return the number
    of bytes written.  ``fmt`` is ``"csv"`` or ``"json"``."""
    if fmt == "csv":
        payload = _csv_bytes(obj)
    elif fmt == "json":
        payload = _json_bytes(obj)
    else:
        raise ValueError(f"unknown export format {fmt!r}: use 'csv' or 'json'")
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "wb") as fh:
            fh.write(payload)
    return len(payload)


def _read_bytes(source) -> bytes:
    if hasattr(source, "read"):
        data = source.read()
        return data.encode() if isinstance(data, str) else data
    with open(source, "rb") as fh:
        return fh.read()


def read_summary_json(source) -> RunSummary:
    """Parse a summary written by :func:`export`; exact inverse."""
    data = json.loads(_read_bytes(source))
    data["curve"] = tuple(tuple(row) for row in data["curve"])
    return RunSummary(**data)


def read_curve_csv(source) -> tuple[tuple[int, int, int, int], ...]:
    """Parse an alive-curve CSV back into (frame, alive, packets_cum,
    chn_count) rows."""
    text = _read_bytes(source).decode()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(CURVE_COLUMNS):
        raise ValueError(f"expected header {','.join(CURVE_COLUMNS)!r}, got {header!r}")
    return tuple(tuple(int(cell) for cell in row) for row in reader if row)
