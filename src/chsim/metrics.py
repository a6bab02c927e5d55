"""Run summaries, policy comparison tables, and their CSV/JSON export.

CSV is the plotting interface: an alive-curve export has exactly the
columns ``frame,alive,packets_cum,chn_count``, which ``csv.reader`` or
any external grapher can consume.  JSON mirrors the dataclass structure
with snake_case keys, sorted, so ``json.loads`` gives back a summary's
fields exactly.  A summary, alone or in a list, is encoded by orjson in
the bytes ``json.dumps`` would give.  A list, such as a sweep's, is
encoded a summary at a time as its runs finish, and written only once
all of them have, so it holds bytes rather than curves.  A trace's
JSON is streamed to the destination (a temporary file beside a path,
renamed over it once complete) a field at a time in sorted key order,
each array (the per-frame columns, the final books, the residual
matrix) a block of entries at a time, in the bytes ``json.dumps`` would
give it: orjson formats each block whose values it writes as
``json.dumps`` does, and ``json.dumps`` the rest.  The residual rows
come from the trace's array or, for a run given a spill file
(:func:`residual_spill`, as ``chsim run`` gives one to a JSON trace that
records residuals), are read back from that file a block at a time, so
neither the run nor its export holds the whole matrix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import stat
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import config_to_dict
from .simulator import SimTrace, SpilledRows, network_lifetime

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
    "residual_spill",
]

CURVE_COLUMNS = ("frame", "alive", "packets_cum", "chn_count")
_SUMMARY_HEADER = (b"policy,scenario,seed,nodes,total_packets,"
                   b"first_death_frame,all_dead_frame,lifetime\n")
# Most residuals one block of the streamed JSON matrix holds.  The peak
# memory of `chsim run` exporting a 6000-frame, 190-node trace through
# its spill file (perfbench/probe.py once, one fresh interpreter a
# reading) was 43.3 MiB at 1 << 15, 40.3 at 1 << 13, 39.7-39.8 at
# 1 << 12 and 39.5-39.6 at 1 << 11.  The writer took 71-112 ms (minima
# of 15, four fresh interpreters a size) at each of 1 << 12, 1 << 13
# and 1 << 15, on a 2-core VM whose speed drifted more than the sizes
# differ.
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


def _matrix_json(matrix):
    """Yield the JSON text of a 1-D or 2-D array, in its own dtype, or of
    the :class:`~chsim.simulator.SpilledRows` that stand for a float one,
    as bytes pieces: ``[``, one piece per block of at most
    ``_JSON_BLOCK_ENTRIES`` entries (at least one row), then ``]``.  The
    bytes are those of ``json.dumps``.  Spilled rows are read a block at
    a time.

    orjson writes int64 values as ``json.dumps`` does, and the same
    shortest round-trip digits as ``float.__repr__`` (by a Ryu-family
    algorithm, in the same notation) for ±0.0 and magnitudes in
    ``[1e-4, 1e16)``, so a block that holds only these goes through it.
    Outside that range orjson has its own notation (``0.00001``,
    ``1e16``) and writes NaN and infinity as ``null``, so any other block
    goes through ``json.dumps``.  The range is checked a block at a time,
    which keeps every temporary as small as a block.
    """
    # Imported here so that `import chsim`, and every command that writes
    # no JSON trace or summary, does not pay its load time (9-15 ms by
    # `python3 -X importtime -c "import orjson"`).
    import orjson

    step = max(1, _JSON_BLOCK_ENTRIES // math.prod(matrix.shape[1:]))
    yield b"["
    for start in range(0, len(matrix), step):
        block = np.ascontiguousarray(matrix[start : start + step])
        magnitude = np.abs(block)
        if np.all((magnitude >= 1e-4) & (magnitude < 1e16) | (block == 0.0)):
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        else:
            text = _dumps(block.tolist())[1:-1].encode()
        yield b"," + text if start else text
    yield b"]"


def _trace_json(trace: SimTrace):
    """Yield a trace's JSON text as bytes pieces, one field at a time in
    sorted key order: each array, and the spilled residual log, through
    :func:`_matrix_json`, and the rest through :func:`_dumps`."""
    doc = {
        "config": config_to_dict(trace.config), "termination": trace.termination,
        "alive": trace.alive, "packets_cum": trace.packets_cum, "chn_count": trace.chn_count,
        "head_change_frames": trace.head_change_frames,
        "head_change_ids": trace.head_change_ids, "reelections": trace.reelections,
        "final_residual": trace.final_residual, "final_consumed": trace.final_consumed,
        "residuals": trace.residual_log,
    }
    for i, key in enumerate(sorted(doc)):
        yield b'%s"%s":' % (b"," if i else b"{", key.encode())
        if isinstance(doc[key], (np.ndarray, SpilledRows)):
            yield from _matrix_json(doc[key])
        else:
            yield _dumps(doc[key]).encode()
    yield b"}\n"


def _chunks(obj, fmt: str):
    """The export of ``obj`` in ``fmt``, as bytes pieces.

    A trace's JSON is :func:`_trace_json`'s.  Summaries and table rows
    hold only scalars and tuples, which json writes as they are, so a
    shallow vars() stands in for a deep asdict().
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
        return _trace_json(obj)
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
    mode = _mode(path)
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


def _mode(path) -> int | None:
    """The ``st_mode`` of what is at ``path`` itself, or None when nothing is."""
    try:
        return os.lstat(path).st_mode
    except FileNotFoundError:
        return None


def residual_spill(path=None):
    """A new unnamed temporary file to spill a trace's residual rows to on
    its way to ``path`` (None for stdout), as :func:`~chsim.simulator.run`
    takes it.

    It goes beside ``path``, on the same filesystem, when a regular file
    or nothing is there yet, which :func:`_write_path` replaces through a
    temporary file beside it; else, or when no temporary file can be
    made there, in the default temporary directory.
    ``tempfile.TemporaryFile`` opens it with ``O_TMPFILE`` where the
    filesystem allows, so it never has a name and nothing is left of it
    once closed, even by a crash."""
    if path is not None:
        mode = _mode(path)
        if mode is None or stat.S_ISREG(mode):
            with contextlib.suppress(OSError):
                return tempfile.TemporaryFile(dir=os.path.dirname(path) or os.curdir)
    return tempfile.TemporaryFile()
