"""Cluster-head election policies and cluster membership assignment.

Three policies share one charge structure (base-station trigger to every
alive candidate, setup handshake for the winners and members, announce
multicast by each new head) and differ only in how winners are picked:

* residual-energy argmax within each current cluster (the default),
* probabilistic self-election with an epoch rotation constraint (LEACH),
* fixed clusters with round-robin headship in ascending node-id order (RRCH).

Every election takes the per-node charges that
:func:`~chsim.energy.election_costs` computes once per run.  A policy
writes its charges, head flags and cluster labels into the
:class:`~chsim.network.Network` it is given and returns only the tuple
of elected head ids.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import ElectionCosts
from .network import NO_CLUSTER, Network

__all__ = [
    "EmptyNetworkError",
    "geometric_partition",
    "dchne_elect",
    "dchne_reelect_cluster",
    "leach_elect",
    "rrch_elect",
]


class EmptyNetworkError(ValueError):
    """An election was attempted with no alive node left."""


def geometric_partition(positions, k: int, rng) -> np.ndarray:
    """Split points into ``k`` spatial groups with a fixed-iteration k-means.

    Runs exactly 20 assignment/update sweeps from a random
    (seed-deterministic) choice of initial centers; a cluster that empties
    out is re-seeded to the point farthest from its assigned center.
    Returns an integer label in ``0..k-1`` per point.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} point groups, got {k}")
    centers = positions[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(20):
        d2 = ((positions[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for j in range(k):
            chosen = labels == j
            if chosen.any():
                centers[j] = positions[chosen].mean(axis=0)
            else:
                runaway = int(d2[np.arange(n), labels].argmax())
                centers[j] = positions[runaway]
                labels[runaway] = j
    return labels


def _argmax_residual(net: Network, indices: np.ndarray) -> int:
    """Index of the highest-residual node among ``indices``.

    ``indices`` must be ascending: ``argmax`` returns the first maximum,
    so a residual tie goes to the lowest node id.
    """
    return int(indices[np.argmax(net.residual[indices])])


def _trigger(net: Network, idx: np.ndarray, cost: float) -> np.ndarray:
    """Charge the election trigger to nodes ``idx`` and return those of
    them still alive afterwards."""
    net.debit(idx, cost)
    return idx[net.alive[idx]]


def _new_round(net: Network, costs: ElectionCosts) -> np.ndarray:
    """Dismiss every head and trigger an election at every alive node;
    return the nodes alive afterwards."""
    net.head[:] = False
    alive_idx = _trigger(net, np.nonzero(net.alive)[0], costs.trigger)
    if len(alive_idx) == 0:
        raise EmptyNetworkError("no node is alive after the election trigger")
    return alive_idx


def _install(net: Network, head_idx, member_idx, costs: ElectionCosts) -> tuple[int, ...]:
    """Charge the setup costs, flag the new heads and return their ids."""
    net.debit(head_idx, costs.head)
    if len(member_idx):
        net.debit(member_idx, costs.member)
    net.head[head_idx] = True
    return tuple(head_idx.tolist())


def _join_nearest(net: Network, alive_idx, head_idx, costs: ElectionCosts) -> tuple[int, ...]:
    """Install ``head_idx`` (ascending) as the heads of clusters 0, 1, ...
    and let every other alive node join the nearest of them."""
    member_idx = alive_idx[~np.isin(alive_idx, head_idx)]
    deltas = net.positions[member_idx][:, None, :] - net.positions[head_idx][None, :, :]
    net.cluster[head_idx] = np.arange(len(head_idx))
    net.cluster[member_idx] = (deltas**2).sum(axis=2).argmin(axis=1)
    return _install(net, head_idx, member_idx, costs)


def dchne_elect(net: Network, c: int, costs: ElectionCosts, partition_rng=None) -> tuple[int, ...]:
    """Elect the highest-residual node of each current cluster as its head.

    Every alive node is charged for receiving the election trigger; each
    winner then pays the head-side setup handshake plus the announce
    multicast, each member the member-side handshake.  Afterwards every
    alive non-head joins the nearest head.  On a network with no cluster
    structure yet, ``partition_rng`` seeds the initial geometric split
    into ``min(c, alive)`` groups.

    Ties on residual energy go to the lower node id.
    """
    if c < 1:
        raise ValueError(f"cluster count must be >= 1, got {c}")
    alive_idx = _new_round(net, costs)
    labels = net.cluster[alive_idx]
    if np.all(labels == NO_CLUSTER):
        if partition_rng is None:
            raise ValueError("initial cluster formation needs a partition rng")
        labels = geometric_partition(
            net.positions[alive_idx], min(c, len(alive_idx)), partition_rng
        )
    heads = [
        _argmax_residual(net, alive_idx[labels == lab])
        for lab in np.unique(labels[labels != NO_CLUSTER])
    ]
    return _join_nearest(net, alive_idx, np.array(sorted(heads), dtype=int), costs)


def dchne_reelect_cluster(net: Network, cluster: int, costs: ElectionCosts) -> int | None:
    """Re-run the residual-energy election inside one cluster whose head
    died, leaving all other clusters untouched.

    Only that cluster's alive members receive the trigger and pay setup
    costs; membership does not change.  Returns the new head's array
    index, or ``None`` if the cluster has no alive member left.
    """
    members = _trigger(net, np.nonzero(net.alive & (net.cluster == cluster))[0], costs.trigger)
    if len(members) == 0:
        return None
    winner = _argmax_residual(net, members)
    _install(net, np.array([winner]), members[members != winner], costs)
    return winner


def leach_elect(
    net: Network, c: int, round_index: int, costs: ElectionCosts, rng, headed: set[int]
) -> tuple[int, ...]:
    """Probabilistic self-election with per-epoch rotation.

    Each alive node that has not yet headed in the current epoch (is not
    in ``headed``, which this call updates) self-elects when its uniform
    draw falls below ``T = P / (1 - P * (round mod ceil(1/P)))`` with
    ``P = c / S``.  The epoch length ``ceil(S/c)`` makes ``T >= 1`` in the
    final epoch round, so every node serves at least once per epoch.  If
    nobody self-elects, the globally highest-residual node is drafted so
    the round still has a head.  Charges and nearest-head membership work
    exactly as in :func:`dchne_elect`.

    One uniform draw is consumed per configured node every round,
    regardless of who is alive, so the random stream stays aligned
    across runs that diverge in deaths.
    """
    if c < 1:
        raise ValueError(f"cluster count must be >= 1, got {c}")
    if round_index < 0:
        raise ValueError(f"round index must be >= 0, got {round_index}")
    s = len(net)
    draws = rng.random(s)
    alive_idx = _new_round(net, costs)
    epoch = math.ceil(s / c)
    if round_index % epoch == 0:
        headed.clear()
    p = c / s
    threshold = p / (1.0 - p * (round_index % epoch))
    eligible = net.alive  # a fresh array, so masking it changes no state
    eligible[list(headed)] = False
    head_idx = np.nonzero(eligible & (draws < threshold))[0]
    if len(head_idx) == 0:
        head_idx = np.array([_argmax_residual(net, alive_idx)])
    headed.update(head_idx.tolist())
    return _join_nearest(net, alive_idx, head_idx, costs)


def rrch_elect(
    net: Network, c: int, round_index: int, costs: ElectionCosts, prev_head: dict[int, int],
    partition_rng=None,
) -> tuple[int, ...]:
    """Round-robin headship inside clusters that are formed once and frozen.

    The first call (``prev_head`` empty) forms clusters and picks first
    heads exactly like :func:`dchne_elect`; afterwards ``net.cluster``
    never changes and each cluster's headship advances to the next alive
    member in cyclic ascending-id order, skipping dead nodes.
    ``prev_head`` maps each cluster to its last head, and this call
    updates it.  Charges are as in :func:`dchne_elect`.
    """
    if not prev_head:
        head_ids = dchne_elect(net, c, costs, partition_rng)
        prev_head.update(enumerate(head_ids))
        return head_ids
    if round_index < 0:
        raise ValueError(f"round index must be >= 0, got {round_index}")
    alive_idx = _new_round(net, costs)
    labels = net.cluster[alive_idx]  # every node alive now joined a cluster in the first round
    heads: list[int] = []
    for lab in np.unique(labels).tolist():
        roster = alive_idx[labels == lab]
        later = roster[roster > prev_head[lab]]
        prev_head[lab] = int(later[0] if len(later) else roster[0])
        heads.append(prev_head[lab])
    head_idx = np.array(heads, dtype=int)
    return _install(net, head_idx, alive_idx[~np.isin(alive_idx, head_idx)], costs)
