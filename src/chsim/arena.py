"""Node placement, geometry and mobility over the square deployment arena."""

from __future__ import annotations

import math

import numpy as np

from .config import ArenaConfig

__all__ = [
    "substream",
    "place_nodes",
    "step_mobility",
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
    """Deterministic, independent RNG for one channel of a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(channel,)))


def place_nodes(cfg: ArenaConfig) -> np.ndarray:
    """Draw ``node_count`` i.i.d. uniform positions over the arena square.

    Fully determined by ``cfg.seed``: the same seed always yields the
    same placement.  Returns an array of shape ``(node_count, 2)``.
    """
    rng = substream(cfg.seed, PLACEMENT)
    return rng.uniform(0.0, cfg.side_a, size=(cfg.node_count, 2))


def _reflect(coords: np.ndarray, side: float) -> np.ndarray:
    # Fold out-of-arena coordinates back inside by mirroring at the walls;
    # the modulo handles steps longer than the arena itself.
    folded = np.mod(coords, 2.0 * side)
    return np.where(folded > side, 2.0 * side - folded, folded)


def step_mobility(
    positions: np.ndarray,
    side_a: float,
    speed: float,
    rng: np.random.Generator,
    frames: int,
) -> np.ndarray:
    """Move every node ``speed`` meters per frame for ``frames`` frames,
    each frame in an independent uniform direction, reflecting at the
    arena boundaries.

    Returns the ``(frames, S, 2)`` positions after each frame; the input
    is not modified.  The angles are drawn as one ``(frames, S)`` block,
    which is the same stream as ``frames`` draws of ``S``.  ``speed = 0``
    is the identity and draws nothing.  Each frame adds its step into
    the path row and folds back only the coordinates that left the
    arena: the fold is the identity on ``[0, side_a]``.
    """
    if speed < 0:
        raise ValueError(f"speed must be >= 0, got {speed!r}")
    positions = np.asarray(positions, dtype=float)
    if speed == 0:
        return np.repeat(positions[None], frames, axis=0)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(frames, len(positions)))
    # each row holds its frame's step until the frame's positions replace it
    path = speed * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    for row in path:
        np.add(positions, row, out=row)
        outside = (row < 0.0) | (row > side_a)
        if outside.any():
            row[outside] = _reflect(row[outside], side_a)
        positions = row
    return path
