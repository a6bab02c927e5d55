"""Array-backed state for the sensor nodes of one simulation instance."""

from __future__ import annotations

import numpy as np

__all__ = ["NO_CLUSTER", "Network"]

NO_CLUSTER = -1
# Most entries of the scratch rows that keep_gaps computes at a time, so
# that building the kept matrix holds little more than the matrix itself.
_GAP_ENTRIES = 1 << 12


def _gaps(positions: np.ndarray, rows, out=None) -> np.ndarray:
    """Squared distances from the nodes ``rows`` to every node, written
    into ``out`` if given: node minus row node on each axis, squared,
    then the x term plus the y term."""
    x, y = positions.T
    dx = np.subtract(x, x[rows][:, None], out=out)
    dy = y - y[rows][:, None]
    return np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)


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

    :meth:`gaps` gives the squared distances from some nodes to every
    node.  A network whose nodes stand still may compute them all once
    (:meth:`keep_gaps`), as a static run does, and :meth:`gaps` then
    gathers its rows from them; assigning ``positions`` drops them, so
    moved nodes are never measured from where they stood.
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
        return len(self._positions)

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @positions.setter
    def positions(self, value) -> None:
        self._positions = value
        self._kept_gaps = None

    @property
    def alive(self) -> np.ndarray:
        return self.residual > 0.0

    def gaps(self, rows) -> np.ndarray:
        """Squared distances from the nodes ``rows`` to every node, as a
        ``(len(rows), S)`` array, gathered from the kept matrix if there is
        one.  ``(a - b)**2`` and ``(b - a)**2`` have the same bits, so a
        row is also that node's column."""
        if self._kept_gaps is not None:
            return self._kept_gaps.take(rows, axis=0)
        return _gaps(self._positions, rows)

    def keep_gaps(self) -> None:
        """Compute every node's squared distances once, a few rows at a
        time, for :meth:`gaps` to gather from until ``positions`` is
        assigned again."""
        n = len(self)
        kept = np.empty((n, n))
        step = max(1, _GAP_ENTRIES // n)
        for start in range(0, n, step):
            _gaps(self._positions, np.arange(start, min(start + step, n)),
                  out=kept[start:start + step])
        self._kept_gaps = kept

    def debit(self, selector, amount) -> None:
        """Charge energy to the selected nodes, capping each charge at the
        node's remaining residual (a dying node gives up exactly what is
        left, keeping the energy books balanced)."""
        take = np.minimum(np.asarray(amount, float), self.residual[selector])
        self.residual[selector] -= take
        self.consumed[selector] += take
