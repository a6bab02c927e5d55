"""Node placement, geometry and mobility over the square deployment arena."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArenaConfig",
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


@dataclass(frozen=True)
class ArenaConfig:
    """Deployment geometry: square side, base-station position, node count, seed.

    The default base station sits centered in x and three quarters of the
    way up the default 350 m arena, giving a mean node-to-station distance
    of about 150 m (max ~315 m at the far corners).  Sinks much farther
    out make the fourth-power uplink term so expensive that a single
    twenty-frame head stint exceeds the battery, which distorts every
    policy comparison; the default keeps head duty costly but survivable.
    """

    side_a: float = 350.0
    bs_position: tuple[float, float] = (175.0, 262.5)
    node_count: int = 190
    seed: int = 0

    def __post_init__(self):
        if not (self.side_a > 0 and math.isfinite(self.side_a)):
            raise ValueError(f"arena side must be positive, got {self.side_a!r}")
        if self.node_count < 1:
            raise ValueError(f"node count must be >= 1, got {self.node_count!r}")
        try:
            finite = len(self.bs_position) == 2 and all(map(math.isfinite, self.bs_position))
        except TypeError:  # not a sequence, or not numbers
            finite = False
        if not finite:
            raise ValueError(
                f"base-station position must be two finite numbers, got {self.bs_position!r}"
            )
        object.__setattr__(self, "bs_position", tuple(self.bs_position))


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
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Move every node ``speed * dt`` meters in an independent uniform
    direction, reflecting at the arena boundaries.

    ``speed = 0`` is the identity.  Returns a new array; the input is
    not modified.
    """
    if speed < 0:
        raise ValueError(f"speed must be >= 0, got {speed!r}")
    positions = np.asarray(positions, dtype=float)
    if speed == 0 or dt == 0:
        return positions.copy()
    theta = rng.uniform(0.0, 2.0 * math.pi, size=len(positions))
    step = speed * dt * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return _reflect(positions + step, side_a)
