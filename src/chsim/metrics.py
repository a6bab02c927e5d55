"""Run summaries, policy comparison tables, and CSV/JSON export/parsing.

CSV is the plotting interface: an alive-curve export has exactly the
columns ``frame,alive,packets_cum,chn_count`` and any external grapher
can consume it.  JSON mirrors the dataclass structure with snake_case
keys and round-trips summaries exactly.  A trace's residual matrix is
streamed to the destination a block of rows at a time, in the bytes
``json.dumps`` would give it; each row reuses the texts of the row above
and calls ``repr`` only for the cells that changed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

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
# Most residuals one block of the streamed JSON matrix holds.  The peak
# memory of exporting a 6000-frame, 190-node trace was 60.8 MiB at
# 1 << 17, 51.5 at 1 << 15, 48.4 at 1 << 13 and 48.0 at 1 << 12; the
# writer's time moved by no more than its noise between these sizes.
_JSON_BLOCK_ENTRIES = 1 << 13


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


def _csv_text(obj) -> str:
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
    return out.getvalue()


def _jsonable(obj):
    # Summaries and table rows hold only scalars and tuples, which json
    # writes as they are, so a shallow vars() stands in for a deep asdict().
    if isinstance(obj, RunSummary):
        return vars(obj)
    if isinstance(obj, ComparisonTable):
        return {
            "rows": [vars(r) for r in obj.rows],
            "aggregates": [vars(a) for a in obj.aggregates],
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
        }
    if isinstance(obj, (list, tuple)) and all(isinstance(x, RunSummary) for x in obj):
        return [vars(s) for s in obj]
    raise ValueError(f"cannot export {type(obj).__name__} as json")


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _matrix_json(matrix: np.ndarray):
    """Yield the JSON text of a 2-D float array's rows as bytes, a block
    of rows at a time.

    ``texts`` holds the text of each column of the last row written.  A
    cell gets a new text, by ``float.__repr__``, only when its int64 bits
    differ from the cell above it (a block's first row compares with the
    block before; bits keep ``-0.0`` apart from ``0.0``), and a row with
    no such cell repeats the line above.  No finite repr contains an
    ``n``, so only a block with a ``nan`` or an ``inf`` needs them turned
    into the ``NaN`` and ``Infinity`` of ``json.dumps``.
    """
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.int64)
    rows, width = bits.shape
    step = max(1, _JSON_BLOCK_ENTRIES // width)
    texts = [""] * width
    line = ""
    yield b"["
    for start in range(0, rows, step):
        block = bits[start : start + step]
        new = np.empty(block.shape, dtype=bool)
        new[0] = block[0] != bits[start - 1] if start else True
        np.not_equal(block[1:], block[:-1], out=new[1:])
        changed = np.flatnonzero(new)
        row, column = np.divmod(changed, width)
        runs = zip(column.tolist(), map(float.__repr__, block.take(changed).view(np.float64).tolist()))
        lines = []
        for count in np.bincount(row, minlength=len(block)).tolist():
            if count:  # else the row repeats the one above it
                for i, text in itertools.islice(runs, count):
                    texts[i] = text
                line = ",".join(texts)
            lines.append(line)
        chunk = f"{',' if start else ''}[{'],['.join(lines)}]"
        if "n" in chunk:
            chunk = chunk.replace("nan", "NaN").replace("inf", "Infinity")
        yield chunk.encode()
    yield b"]"


def _json_chunks(obj):
    """The JSON document of ``obj``, newline-terminated, as bytes pieces.

    A trace's residuals go between the keys that sort before and after
    ``"residuals"``, each side encoded whole; neither side is empty.
    """
    doc = _jsonable(obj)
    if not isinstance(obj, SimTrace):
        return [(_dumps(doc) + "\n").encode()]
    head = _dumps({k: v for k, v in doc.items() if k < "residuals"}).encode()
    tail = _dumps({k: v for k, v in doc.items() if k > "residuals"}).encode()
    residuals = [b"null"] if obj.residual_log is None else _matrix_json(obj.residual_log)
    return itertools.chain([head[:-1], b',"residuals":'], residuals, [b",", tail[1:], b"\n"])


def _write(chunks, fh) -> int:
    written = 0
    for chunk in chunks:
        fh.write(chunk)
        written += len(chunk)
    return written


def export(obj, fmt: str, destination) -> int:
    """Serialize a trace, summary, summary list or comparison table to
    ``destination`` (a path or a binary file-like) and return the number
    of bytes written.  ``fmt`` is ``"csv"`` or ``"json"``."""
    if fmt == "csv":
        chunks = [_csv_text(obj).encode()]
    elif fmt == "json":
        chunks = _json_chunks(obj)
    else:
        raise ValueError(f"unknown export format {fmt!r}: use 'csv' or 'json'")
    if hasattr(destination, "write"):
        return _write(chunks, destination)
    with open(destination, "wb") as fh:
        return _write(chunks, fh)


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
