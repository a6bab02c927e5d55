"""Node placement, geometry and mobility over the square deployment arena."""

from __future__ import annotations

import math
from array import array
from itertools import islice
from operator import attrgetter

import numpy as np

from .config import ArenaConfig

__all__ = [
    "substream",
    "place_nodes",
    "step_mobility",
    "Headings",
    "PLACEMENT",
    "MOBILITY",
    "SCENARIO",
    "LEACH_DRAWS",
    "PARTITION",
]

# Channels of the per-run random stream.  Every stochastic consumer gets
# its own child stream of the master seed, so runs that differ only in
# election policy still see identical placement, mobility and traffic.
PLACEMENT, MOBILITY, SCENARIO, LEACH_DRAWS, PARTITION = range(5)


def substream(seed: int, channel: int) -> np.random.Generator:
    """Deterministic, independent RNG for one channel of a master seed
    (its first draws are pinned in tests/test_numeric_contracts.py)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(channel,)))


def place_nodes(cfg: ArenaConfig) -> np.ndarray:
    """Draw ``node_count`` i.i.d. uniform positions over the arena square.

    Fully determined by ``cfg.seed``: the same seed always yields the
    same placement.  Returns an array of shape ``(node_count, 2)``.
    """
    rng = substream(cfg.seed, PLACEMENT)
    return rng.uniform(0.0, cfg.side_a, size=(cfg.node_count, 2))


# A block redoes its hot coordinates one Python float at a time while that
# costs less than folding whole rows.  On a 2-core Xeon VM (Python 3.11,
# numpy 2.4) a folded row cost as much as 18 to 65 walked cells, fewest at
# 10 nodes (20 coordinates a row) and most at 190 (380), in two runs of
# `python3 tools/time_step_mobility.py --costs` (BENCH_13.json), and 17 to
# 73 with the steps built in one buffer (BENCH_22.json); 32 lies in that
# range.
_WALK_CELLS_PER_ROW = 32


# Mobility steps a Headings keeps for the runs after the first: 1 << 16
# steps of 16 bytes, 1 MiB, about 4 blocks of a 190-node run.  Measured
# on a 2-core Xeon VM (Python 3.11, numpy 2.4) against keeping none, on
# perfbench's sweep-mobile workload: peak RSS of a fresh process, and
# wall time as the median ratio of in-process alternating pairs.
#   kept steps        peak RSS              wall time
#   64 Ki (1 MiB)     +1.05 MiB (+2.7 %)    0.87-0.88x
#   96 Ki             +1.45 MiB (+3.7 %)    0.81-0.83x
#   all of them       +8.5 MiB (+22 %)      not timed
# 64 Ki keeps the rise well inside perfbench's 5 % bound on peak RSS.
_KEPT_STEPS = 1 << 16


def _draw_steps(rng, speed: float, out: np.ndarray) -> None:
    """Fill ``out``, ``(..., 2)``, with the steps ``speed·cos θ`` and
    ``speed·sin θ`` of the next uniform angles ``θ`` that ``rng`` draws,
    ``out.shape[:-1]`` of them: ``np.cos`` and ``np.sin`` write straight
    into ``out``, which is then scaled in place."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=out.shape[:-1])
    np.cos(theta, out=out[..., 0])
    np.sin(theta, out=out[..., 1])
    out *= speed


class Headings:
    """The mobility steps of the runs of one seed and speed, whatever
    their node count or policy.

    A run's steps are the angles of the seed's ``MOBILITY`` substream in
    draw order, frame after frame and node after node, each made into the
    step :func:`_draw_steps` gives it, so the k-th step is the same in
    every run of the seed and speed.  The first ``_KEPT_STEPS`` steps are
    drawn, in order, the first time a run asks for them, and kept for the
    runs after it.  Each run reads from the first step on through a
    :meth:`cursor` of its own, which draws the steps past the kept ones
    from a generator of its own, advanced past them.  Nothing is drawn or
    kept before a run asks for a step, so runs whose nodes stand still
    cost nothing here.
    """

    # the config fields a run's steps depend on
    FIELDS = ("arena.seed", "mobility_speed")

    def __init__(self, cfg):
        self.key = attrgetter(*self.FIELDS)(cfg)
        self.seed, self.speed = self.key
        self._rng = None  # draws the kept steps
        self._kept = np.empty((0, 2))
        self._filled = 0

    def fits(self, cfg) -> bool:
        """Whether ``cfg``'s run sees these steps."""
        return attrgetter(*self.FIELDS)(cfg) == self.key

    def cursor(self) -> _Cursor:
        """A new run's read of the steps, from the first one on."""
        return _Cursor(self)

    def _keep(self, stop: int) -> np.ndarray:
        """The kept steps, a read-only view, once every step before
        ``stop`` is kept or ``_KEPT_STEPS`` are.  Their buffer is made
        whole when the first step is asked for, so it is never copied;
        only the pages of the steps kept are touched."""
        if self._rng is None:
            self._rng = substream(self.seed, MOBILITY)
            self._kept = np.empty((_KEPT_STEPS, 2))
        stop = min(stop, len(self._kept))
        if stop > self._filled:
            _draw_steps(self._rng, self.speed, self._kept[self._filled : stop])
            self._filled = stop
        kept = self._kept[: self._filled]
        kept.flags.writeable = False
        return kept


class _Cursor:
    """One run's read of a :class:`Headings`, from its first step on."""

    def __init__(self, headings: Headings):
        self.headings = headings
        self._read = 0
        self._rng = None  # draws the steps past the kept ones

    def steps(self, frames: int, nodes: int) -> np.ndarray:
        """The next ``frames * nodes`` steps, ``(frames, nodes, 2)``: a
        read-only view of the kept steps when they hold them all, else a
        new array of the kept ones followed by those drawn past them."""
        start = self._read
        self._read += frames * nodes
        kept = self.headings._keep(self._read)
        if self._read <= len(kept):
            return kept[start : self._read].reshape(frames, nodes, 2)
        steps = np.empty((frames * nodes, 2))
        head = kept[start:]
        steps[: len(head)] = head
        if self._rng is None:  # PCG64: one output per angle drawn
            self._rng = substream(self.headings.seed, MOBILITY)
            self._rng.bit_generator.advance(start + len(head))
        _draw_steps(self._rng, self.headings.speed, steps[len(head) :])
        return steps.reshape(frames, nodes, 2)


def step_mobility(
    positions: np.ndarray,
    side_a: float,
    speed: float,
    rng: np.random.Generator | _Cursor,
    frames: int,
) -> np.ndarray:
    """Move every node ``speed`` meters per frame for ``frames`` frames,
    each frame in an independent uniform direction, reflecting at the
    arena boundaries.

    Returns the ``(frames, S, 2)`` positions after each frame; the input
    is not modified.  ``speed = 0`` is the identity and draws nothing.
    ``rng`` is a generator, which draws the angles as one ``(frames, S)``
    block (the same stream as ``frames`` draws of ``S``) and makes them
    into steps in one buffer, or a run's :meth:`Headings.cursor`, which
    gives the steps of a :class:`Headings` made for ``speed`` from where
    it stands, the kept ones as a view.  The steps are copied once, under
    the positions.

    Frame by frame, each coordinate adds its step and, when that takes it
    out of ``[0, side_a]``, folds back: ``f = y mod 2 side_a``, mirrored
    to ``2 side_a - f`` when past ``side_a``.  Between two wall crossings
    a coordinate's path is a plain running sum, so one ``np.add.accumulate``
    over the positions and steps gives every coordinate that never leaves
    the arena its exact path, row after row.  Only the coordinates that do
    (the hot ones) are redone from their first step out: one Python float
    at a time when the block has few such cells per frame, else by folding
    whole rows, since the fold is the identity inside the arena.
    """
    if speed < 0:
        raise ValueError(f"speed must be >= 0, got {speed!r}")
    positions = np.asarray(positions, dtype=float)
    if speed == 0:
        return np.repeat(positions[None], frames, axis=0)
    if isinstance(rng, _Cursor):
        if rng.headings.speed != speed:
            raise ValueError(f"the headings move at {rng.headings.speed!r} m, not {speed!r}")
        steps = rng.steps(frames, len(positions))
    else:
        steps = np.empty((frames, *positions.shape))
        _draw_steps(rng, speed, steps)
    path = np.empty((frames + 1, *positions.shape))
    path[0] = positions
    path[1:] = steps
    coords = path.reshape(frames + 1, -1)  # a row per frame, a column per coordinate
    steps = steps.reshape(frames, -1)
    # At speeds near the float limit a running sum may overflow, but only
    # in rows after its coordinate's first step out, which are redone.
    with np.errstate(over="ignore"):
        np.add.accumulate(coords, axis=0, out=coords)
    outside = (coords[1:] < 0.0) | (coords[1:] > side_a)
    hot = np.flatnonzero(outside.any(axis=0))
    if len(hot):
        first = outside[:, hot].argmax(axis=0)  # each hot coordinate's first step out
        if (frames - first).sum() <= _WALK_CELLS_PER_ROW * frames:
            _walk(coords, steps, hot, first, side_a)
        else:
            _fold_rows(coords, steps, int(first.min()), side_a)
    return path[1:]


def _walk(coords: np.ndarray, steps: np.ndarray, hot: np.ndarray, first: np.ndarray,
          side_a: float) -> None:
    """Redo each hot column of ``coords`` from its step ``first`` on, one
    Python float at a time.  Python's float ``%`` follows the same rule as
    ``np.mod`` (``fmod``, then the divisor's sign), so the fold gives the
    bytes of :func:`_fold_rows` (tests/test_numeric_contracts.py)."""
    two = 2.0 * side_a
    walked = np.arange(len(steps)) >= first[:, None]  # hot coordinate x step
    ys = array("d")  # floats stored unboxed: no Python object outlives its step
    push = ys.append
    deltas = iter(memoryview(steps.T[hot][walked]))
    for y, n in zip(coords[first, hot].tolist(), (len(steps) - first).tolist()):
        for d in islice(deltas, n):
            y += d
            if y < 0.0 or y > side_a:
                y %= two
                if y > side_a:
                    y = two - y
            push(y)
    column, step = np.nonzero(walked)
    coords[step + 1, hot[column]] = np.frombuffer(ys)


def _fold_rows(coords: np.ndarray, steps: np.ndarray, start: int, side_a: float) -> None:
    """Redo ``coords`` row by row from step ``start`` on, folding every
    coordinate.  ``min(f, 2 side_a - f)`` of ``f = y mod 2 side_a`` is the
    fold of :func:`_walk` in one numpy call fewer, since ``2 side_a - f``
    falls below ``f`` exactly when ``f`` passes ``side_a``; it leaves a
    ``y`` in ``[0, side_a]`` as it is.  It would turn ``-0.0`` into
    ``0.0``, which no path of a run holds: a sum is ``-0.0`` only when
    both terms are, and placement draws no ``-0.0``."""
    two = 2.0 * side_a
    folded = np.empty(coords.shape[1])
    for i in range(start, len(steps)):
        row = coords[i + 1]
        np.add(coords[i], steps[i], out=row)
        np.mod(row, two, out=folded)
        np.subtract(two, folded, out=row)
        np.minimum(folded, row, out=row)
