"""Node placement, geometry and mobility over the square deployment arena."""

from __future__ import annotations

import math

import numpy as np

from .config import ArenaConfig

__all__ = [
    "substream",
    "place_nodes",
    "distance",
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


def distance(a, b) -> float:
    """Euclidean distance between two (x, y) points."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    return math.hypot(ax - bx, ay - by)


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
) -> np.ndarray:
    """Move every node ``speed`` meters (one frame's travel) in an
    independent uniform direction, reflecting at the arena boundaries.

    ``speed = 0`` is the identity.  Returns a new array; the input is
    not modified.
    """
    if speed < 0:
        raise ValueError(f"speed must be >= 0, got {speed!r}")
    positions = np.asarray(positions, dtype=float)
    if speed == 0:
        return positions.copy()
    theta = rng.uniform(0.0, 2.0 * math.pi, size=len(positions))
    step = speed * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return _reflect(positions + step, side_a)
