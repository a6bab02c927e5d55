"""Run summaries, policy comparison tables, and their CSV/JSON export.

CSV is the plotting interface: an alive-curve export has exactly the
columns ``frame,alive,packets_cum,chn_count``, which ``csv.reader`` or
any external grapher can consume.  JSON mirrors the dataclass structure
with snake_case keys, sorted, so ``json.loads`` gives back a summary's
fields exactly.  A summary, alone or in a list, is encoded by orjson in
the bytes ``json.dumps`` would give.  A list, such as a sweep's, is
encoded a summary at a time as its runs finish, and written only once
all of them have, so it holds bytes rather than curves.  A trace's
residual matrix is streamed to the destination (a temporary file beside
a path, renamed over it once complete) a block of rows at a time, in
the bytes ``json.dumps`` would give it: orjson formats each block whose
values it writes as ``json.dumps`` does, and ``json.dumps`` the rest.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import stat
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import config_to_dict
from .simulator import SimTrace, network_lifetime

__all__ = [
    "RunSummary",
    "RunOutcome",
    "ComparisonRow",
    "AggregateRow",
    "ComparisonTable",
    "GroupingError",
    "summarize",
    "outcome",
    "compare",
    "export",
]

CURVE_COLUMNS = ("frame", "alive", "packets_cum", "chn_count")
_SUMMARY_HEADER = (b"policy,scenario,seed,nodes,total_packets,"
                   b"first_death_frame,all_dead_frame,lifetime\n")
# Most residuals one block of the streamed JSON matrix holds.  The peak
# memory of exporting a 6000-frame, 190-node trace (perfbench/probe.py
# once, one fresh interpreter a reading) was 52.1-52.3 MiB at 1 << 15,
# 48.7-48.9 at 1 << 13 and 48.2-48.4 at 1 << 12; the writer took
# 50.5-51.1 ms (minima of 15) at each of these sizes.
_JSON_BLOCK_ENTRIES = 1 << 12


def _lifetime(all_dead_frame: int | None, frames: int) -> int:
    """Frames until the last death — or until the run was cut off, when
    nodes were still alive at the end."""
    return all_dead_frame if all_dead_frame is not None else frames


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
        return _lifetime(self.all_dead_frame, len(self.curve))


class RunOutcome(NamedTuple):
    """What :func:`compare` reads of one run, without its curve."""

    policy: str
    scenario: str
    seed: int
    total_packets: int
    all_dead_frame: int | None
    frames: int

    def lifetime(self) -> int:
        """As :meth:`RunSummary.lifetime`."""
        return _lifetime(self.all_dead_frame, self.frames)


def outcome(trace: SimTrace) -> RunOutcome:
    """What :func:`summarize` would give of a trace, without building its
    curve; an empty trace yields zeros."""
    cfg = trace.config
    return RunOutcome(
        policy=cfg.policy,
        scenario=cfg.scenario.kind,
        seed=cfg.arena.seed,
        total_packets=int(trace.packets_cum[-1]) if len(trace) else 0,
        all_dead_frame=network_lifetime(trace, 1),
        frames=len(trace),
    )


def _curve(trace: SimTrace) -> tuple[tuple[int, int, int, int], ...]:
    """``(frame, alive, packets_cum, chn_count)`` rows of a trace."""
    columns = (trace.alive.tolist(), trace.packets_cum.tolist(), trace.chn_count.tolist())
    return tuple(zip(range(len(trace)), *columns))


def summarize(trace: SimTrace) -> RunSummary:
    """Reduce a trace to its summary; an empty trace yields zeros."""
    result = outcome(trace)
    nodes = trace.config.arena.node_count
    return RunSummary(
        policy=result.policy,
        scenario=result.scenario,
        seed=result.seed,
        nodes=nodes,
        total_packets=result.total_packets,
        first_death_frame=network_lifetime(trace, nodes),
        all_dead_frame=result.all_dead_frame,
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


def compare(summaries) -> ComparisonTable:
    """Per-environment deltas of dchne against each baseline, plus
    across-seed aggregates.

    ``summaries`` holds a :class:`RunSummary` or a :class:`RunOutcome`
    per run, in any order, and may be any iterable, such as a generator:
    only each run's total packets and lifetime are kept.  They must
    group by (scenario, seed) into sets of distinct policies that
    include dchne; anything else raises :class:`GroupingError`.
    """
    groups: dict[tuple[str, int], dict[str, tuple[int, int]]] = {}
    for summary in summaries:
        group = groups.setdefault((summary.scenario, summary.seed), {})
        if summary.policy in group:
            raise GroupingError(
                f"duplicate policy {summary.policy!r} for scenario={summary.scenario} "
                f"seed={summary.seed}"
            )
        group[summary.policy] = (summary.total_packets, summary.lifetime())
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
        packets, lifetime = group["dchne"]
        for baseline in baselines:
            rows.append(
                ComparisonRow(
                    scenario=scenario,
                    seed=seed,
                    baseline=baseline,
                    packets_delta=packets - group[baseline][0],
                    lifetime_delta=lifetime - group[baseline][1],
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


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _csv_rows(rows) -> bytes:
    """``rows`` as CSV lines, each ended by ``\\n``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def _summary_piece(s: RunSummary, fmt: str) -> bytes:
    """A summary's JSON text of its ``vars``, or its row in a summary
    list's CSV.

    The JSON goes through orjson with sorted keys, which writes the
    bytes of ``json.dumps`` for ints, ``None``, tuples of ints and
    strings of characters below U+007F; it writes U+007F and above raw,
    where ``json.dumps`` escapes them.  orjson's result keeps 64 KiB of
    capacity whatever its length, so the piece held is a trimmed copy.
    A summary whose policy or scenario holds such a character, or with
    an int outside orjson's 64-bit range, such as a seed of ``2**64``,
    goes through ``json.dumps``."""
    if not isinstance(s, RunSummary):
        raise ValueError(f"cannot export {type(s).__name__} in a summary list")
    if fmt == "csv":
        return _csv_rows([(s.policy, s.scenario, s.seed, s.nodes, s.total_packets,
                           "" if s.first_death_frame is None else s.first_death_frame,
                           "" if s.all_dead_frame is None else s.all_dead_frame,
                           s.lifetime())])
    import orjson  # not loaded by `import chsim`; see _matrix_json

    if max(s.policy + s.scenario, default="") < "\x7f":
        with contextlib.suppress(orjson.JSONEncodeError):
            return memoryview(orjson.dumps(vars(s), option=orjson.OPT_SORT_KEYS)).tobytes()
    return _dumps(vars(s)).encode()


def _summary_list_chunks(summaries, fmt: str) -> list[bytes]:
    """The export of a list, tuple or iterator of summaries, as bytes
    pieces.  Each summary is encoded when it arrives and then let go
    (``map`` keeps no reference to it while the next one is made), so
    only the bytes are held, never a curve.  The pieces join into the
    bytes of the one-shot encoding: a header and one row per summary, or
    ``json.dumps([vars(s), ...])`` with sorted keys and no spaces."""
    pieces = map(_summary_piece, summaries, itertools.repeat(fmt))
    if fmt == "csv":
        return [_SUMMARY_HEADER, *pieces]
    chunks = [b"["]
    for piece in pieces:
        if len(chunks) > 1:
            chunks.append(b",")
        chunks.append(piece)
    chunks.append(b"]\n")
    return chunks


def _matrix_json(matrix: np.ndarray):
    """Yield the JSON text of a 2-D float array as bytes pieces: ``[``,
    one piece per block of at most ``_JSON_BLOCK_ENTRIES`` entries (at
    least one row), then ``]``.  The bytes are those of ``json.dumps``.

    orjson writes the same shortest round-trip digits as ``float.__repr__``
    (by a Ryu-family algorithm, in the same notation) for ±0.0 and
    magnitudes in ``[1e-4, 1e16)``, so a block that holds only these
    goes through it.
    Outside that range orjson has its own notation (``0.00001``,
    ``1e16``) and writes NaN and infinity as ``null``, so any other block
    goes through ``json.dumps``.  The range is checked a block at a time,
    which keeps every temporary as small as a block.
    """
    # Imported here so that `import chsim`, and every command that writes
    # no residual matrix, does not pay its load time (9-15 ms by
    # `python3 -X importtime -c "import orjson"`).
    import orjson

    values = np.ascontiguousarray(matrix, dtype=np.float64)
    step = max(1, _JSON_BLOCK_ENTRIES // values.shape[1])
    yield b"["
    for start in range(0, len(values), step):
        block = values[start : start + step]
        magnitude = np.abs(block)
        if np.all((magnitude >= 1e-4) & (magnitude < 1e16) | (block == 0.0)):
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        else:
            text = _dumps(block.tolist())[1:-1].encode()
        yield b"," + text if start else text
    yield b"]"


def _chunks(obj, fmt: str):
    """The export of ``obj`` in ``fmt``, as bytes pieces.

    A trace's JSON puts its residuals between the keys that sort before
    and after ``"residuals"``, each side encoded whole; neither side is
    empty.  Summaries and table rows hold only scalars and tuples, which
    json writes as they are, so a shallow vars() stands in for a deep
    asdict().
    """
    # a RunOutcome is a tuple too, but one run's, not a list of summaries
    if type(obj) in (list, tuple) or isinstance(obj, Iterator):
        return _summary_list_chunks(obj, fmt)
    if isinstance(obj, RunSummary):
        if fmt == "csv":
            return [_csv_rows((CURVE_COLUMNS, *obj.curve))]
        return [_summary_piece(obj, fmt), b"\n"]
    if isinstance(obj, SimTrace):
        if fmt == "csv":
            return [_csv_rows((CURVE_COLUMNS, *_curve(obj)))]
        doc = {
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
        head = _dumps({k: v for k, v in doc.items() if k < "residuals"}).encode()
        tail = _dumps({k: v for k, v in doc.items() if k > "residuals"}).encode()
        residuals = [b"null"] if obj.residual_log is None else _matrix_json(obj.residual_log)
        return itertools.chain((head[:-1], b',"residuals":'), residuals, (b",", tail[1:], b"\n"))
    if isinstance(obj, ComparisonTable):
        if fmt == "csv":
            return [_csv_rows((
                ("scenario", "seed", "baseline", "packets_delta", "lifetime_delta"),
                *((r.scenario, r.seed, r.baseline, r.packets_delta, r.lifetime_delta)
                  for r in obj.rows),
            ))]
        doc = {"rows": [vars(r) for r in obj.rows], "aggregates": [vars(a) for a in obj.aggregates]}
        return [(_dumps(doc) + "\n").encode()]
    raise ValueError(f"cannot export {type(obj).__name__} as {fmt}")


def _write(chunks, fh) -> int:
    written = 0
    for chunk in chunks:
        fh.write(chunk)
        written += len(chunk)
    return written


def export(obj, fmt: str, destination) -> int:
    """Serialize a trace, summary, summary list or comparison table to
    ``destination`` (a path or a binary file-like) and return the number
    of bytes written.  ``fmt`` is ``"csv"`` or ``"json"``.

    A summary list may be any iterator of summaries, such as a generator
    that runs each simulation as it is asked for.  It is encoded in full
    before anything is written, as separate pieces that are never joined,
    so one that raises part way leaves no file and writes nothing.  A
    path is written as :func:`_write_path` writes it, so a trace whose
    streamed export fails part way leaves no truncated file either."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}: use 'csv' or 'json'")
    chunks = _chunks(obj, fmt)
    if hasattr(destination, "write"):
        return _write(chunks, destination)
    return _write_path(chunks, os.fspath(destination))


def _write_path(chunks, path) -> int:
    """Write ``chunks`` to the file at ``path``.

    A regular file, or a path with nothing at it yet, is written to a
    temporary file beside it, which replaces it only once every chunk is
    written; on failure the temporary file is removed and ``path`` keeps
    what it held.  The file ends with the mode a plain ``open`` would
    leave: an existing file's own, else ``0o666`` less the umask.
    Anything else at ``path`` (a device such as ``/dev/null``, a FIFO, a
    symlink, a directory) is opened and written in place, never replaced
    or removed, as is a regular file beside which no temporary file can
    be made."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    fd = None
    if mode is None or stat.S_ISREG(mode):
        head, name = os.path.split(path)
        temp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        with contextlib.suppress(OSError):
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    if fd is None:
        with open(path, "wb") as fh:
            return _write(chunks, fh)
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))
            written = _write(chunks, fh)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
    return written
