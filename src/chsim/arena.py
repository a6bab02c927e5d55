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


# Mobility steps a Headings keeps for the runs after the first: 1 << 17
# steps of 16 bytes, 2 MiB, about 8 blocks of a 190-node run.  That is
# the memory a static run may keep for its squared distances
# (simulator._KEPT_GAPS), so a mobile and a static invocation keep the
# same 2 MiB budget.  Measured on a 2-core Xeon VM (Python 3.11, numpy
# 2.4) on perfbench's sweep-mobile workload, which reads 1 500 000 steps:
# peak RSS of a fresh process (perfbench/probe.py once, 3 to 6 each)
# over keeping none and over keeping 64 Ki, and wall time as the median
# ratio of alternating pairs.
#   kept steps       drawn     peak RSS over none / 64 Ki    wall time
#   none           1 500 000   39.2 MiB                      1x
#   64 Ki (1 MiB)    981 248   +0.97 MiB (+2.5 %)            0.88x of none (BENCH_30.json)
#   96 Ki            775 176   +1.47 MiB (+3.7 %) / +1.2 %   0.81-0.83x of none, in-process
#   128 Ki (2 MiB)   604 640   +1.76 MiB (+4.5 %) / +2.0 %   0.89x of 64 Ki (BENCH_34.json)
#   192 Ki           371 784   +2.75 MiB (+7.0 %) / +4.4 %   not timed
#   all 285 000      285 000   +3.8 MiB (+9.7 %) / +7.1 %    not timed
# perfbench's own pairs read 128 Ki at +0.95 MiB (+2.4 %) over 64 Ki,
# inside its 5 % bound on peak RSS; the rows above come too close to
# that bound or pass it.
_KEPT_STEPS = 1 << 17


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
    every run of the seed and speed, and a run of S nodes finds frame
    f's steps from step ``f * S`` on (:meth:`steps`).  The first
    ``_KEPT_STEPS`` steps (2 MiB) are drawn, in order, the first time a
    run asks for them, and kept for the runs after it; headings made with
    ``keep`` false, as a lone run's are, keep none.  One generator draws
    both those and the steps past them: a draw that starts where its last
    one stopped continues it, and any other makes it anew, advanced to
    the draw's first step, so a read gets the same steps whatever the
    reads before it.  Nothing is drawn or kept before a run asks for a
    step, so runs whose nodes stand still cost nothing here.  ``key``
    holds the ``FIELDS`` of the config it was made for.
    """

    # the config fields a run's steps depend on
    FIELDS = ("arena.seed", "mobility_speed")

    def __init__(self, cfg, keep: bool = True):
        self.key = attrgetter(*self.FIELDS)(cfg)
        self.seed, self.speed = self.key
        self._keeps = keep
        self._kept = None
        self._filled = 0
        self._rng = None  # draws every step, the kept ones and those past them
        self._next = 0  # the step _rng draws next

    def steps(self, frame: int, frames: int, nodes: int) -> np.ndarray:
        """The steps of ``nodes`` nodes in the ``frames`` frames from
        ``frame`` on, ``(frames, nodes, 2)``: a read-only view of the kept
        steps when they hold them all, else a new array of the kept ones
        followed by those drawn past them."""
        start, stop = frame * nodes, (frame + frames) * nodes
        kept = self._keep(stop)
        if stop <= len(kept):
            return kept[start:stop].reshape(frames, nodes, 2)
        steps = np.empty((stop - start, 2))
        head = kept[start:]
        steps[: len(head)] = head
        self._draw(start + len(head), steps[len(head) :])
        return steps.reshape(frames, nodes, 2)

    def _keep(self, stop: int) -> np.ndarray:
        """The kept steps, a read-only view, once every step before
        ``stop`` is kept or ``_KEPT_STEPS`` are, or none when the
        headings keep nothing.  Their buffer is made whole when the first
        step is asked for, so it is never copied; only the pages of the
        steps kept are touched."""
        if self._kept is None:
            self._kept = np.empty((_KEPT_STEPS if self._keeps else 0, 2))
        stop = min(stop, len(self._kept))
        if stop > self._filled:
            self._draw(self._filled, self._kept[self._filled : stop])
            self._filled = stop
        kept = self._kept[: self._filled]
        kept.flags.writeable = False
        return kept

    def _draw(self, start: int, out: np.ndarray) -> None:
        """Fill ``out``, ``(n, 2)``, with the steps from step ``start`` on,
        from the generator when it draws ``start`` next, else from a new
        one advanced to it (PCG64: one output per angle drawn)."""
        if self._rng is None or self._next != start:
            self._rng = substream(self.seed, MOBILITY)
            self._rng.bit_generator.advance(start)
        _draw_steps(self._rng, self.speed, out)
        self._next = start + len(out)


def step_mobility(positions: np.ndarray, side_a: float, steps: np.ndarray) -> np.ndarray:
    """Move every node by its ``steps``, ``(frames, S, 2)``, one frame
    after another, reflecting at the arena boundaries.

    Returns the ``(frames, S, 2)`` positions after each frame; neither
    the positions nor the steps are modified, so the steps may be a
    read-only view of :meth:`Headings.steps`.  The steps are copied once,
    under the positions, and not accumulated where they stand: the hot
    coordinates below are redone from the steps after the accumulate has
    overwritten the path, and the difference of two path rows need not
    give a step back bit for bit.

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
    frames = len(steps)
    path = np.empty((frames + 1, *steps.shape[1:]))
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
