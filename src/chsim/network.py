"""Array-backed state for the sensor nodes of one simulation instance."""

from __future__ import annotations

import numpy as np

__all__ = ["NO_CLUSTER", "Network"]

NO_CLUSTER = -1


class Network:
    """Positions, residual energy, roles and cluster membership of all nodes.

    State is held in parallel numpy arrays indexed 0..S-1, and a node's
    array index is its id: election tie-breaks and round-robin order use
    it directly.  A node is alive exactly while its residual energy is
    positive.  ``initial == residual + consumed`` holds for every node at
    all times: :meth:`debit` caps each charge at what is left.  Only the
    elections call it, each with one full-length vector; a node charged
    0.0 keeps the bits of its books, which are never negative.  The
    simulator charges its frames as a debit per frame would, on its own.
    """

    def __init__(self, positions, initial_energy=3.5):
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must have shape (S, 2)")
        n = len(positions)
        self.positions = positions
        self.residual = np.broadcast_to(np.asarray(initial_energy, float), (n,)).copy()
        if np.any(self.residual <= 0):
            raise ValueError("initial energy must be positive")
        self.initial = self.residual.copy()
        self.consumed = np.zeros(n)
        self.cluster = np.full(n, NO_CLUSTER, dtype=int)
        self.head = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def alive(self) -> np.ndarray:
        return self.residual > 0.0

    def debit(self, selector, amount) -> None:
        """Charge energy to the selected nodes, capping each charge at the
        node's remaining residual (a dying node gives up exactly what is
        left, keeping the energy books balanced)."""
        take = np.minimum(np.asarray(amount, float), self.residual[selector])
        self.residual[selector] -= take
        self.consumed[selector] += take
