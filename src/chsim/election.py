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
:class:`~chsim.network.Network` it is given.  A round's election returns
nothing: its heads are the ``net.head`` flags, none when no node is
alive after the election trigger.

A round's heads are found for all clusters at once, with no loop over
clusters: the residual-energy election sorts the alive nodes by
(cluster, residual descending, id) and takes the first node of each
cluster; round-robin keeps a :class:`HeadRing` per run, formed with the
clusters in its first round, and reads each cluster's next head from it
with one gather.  Members join the nearest head by
one argmin down the heads' rows of squared distances to every node,
which a static run gathers from the matrix it computed once
(:meth:`~chsim.network.Network.gaps`).
"""

from __future__ import annotations

import math

import numpy as np

from .energy import ElectionCosts
from .network import NO_CLUSTER, Network

__all__ = [
    "geometric_partition",
    "dchne_elect",
    "dchne_reelect_cluster",
    "leach_elect",
    "rrch_elect",
    "HeadRing",
]


def geometric_partition(positions, k: int, rng) -> np.ndarray:
    """Split points into ``k`` spatial groups with a bounded k-means.

    Runs at most 20 assignment/update sweeps from a random
    (seed-deterministic) choice of initial centers; a cluster that empties
    out is re-seeded to the point farthest from its assigned center.  It
    stops early once an update with no empty cluster leaves every center's
    bytes as they were: every later sweep would give the same labels.
    Returns an integer label in ``0..k-1`` per point.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} point groups, got {k}")
    centers = positions[rng.choice(n, size=k, replace=False)].copy()
    x, y = positions[:, :1], positions[:, 1:]
    for _ in range(20):
        d2 = np.square(x - centers[:, 0]) + np.square(y - centers[:, 1])
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if counts.all():
            before = centers.tobytes()
            # bincount sums each group in ascending index order, as mean() does
            # (tests/test_numeric_contracts.py)
            centers[:, 0] = np.bincount(labels, weights=positions[:, 0], minlength=k) / counts
            centers[:, 1] = np.bincount(labels, weights=positions[:, 1], minlength=k) / counts
            if centers.tobytes() == before:
                break
            continue
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


def _trigger(net: Network, candidates: np.ndarray, cost: float) -> np.ndarray:
    """Charge the election trigger to the nodes flagged in ``candidates``
    and return the ids of those of them still alive afterwards."""
    # one full-length charge: a node charged 0.0 keeps the bits of its
    # residual and consumed energy (tests/test_numeric_contracts.py)
    net.debit(slice(None), candidates * cost)
    return np.nonzero(candidates & net.alive)[0]


def _new_round(net: Network, costs: ElectionCosts) -> np.ndarray:
    """Dismiss every head and trigger an election at every alive node;
    return the nodes alive afterwards (none, if the trigger killed the last)."""
    net.head[:] = False
    return _trigger(net, net.alive, costs.trigger)


def _install(net: Network, head_idx, alive_idx, costs: ElectionCosts) -> None:
    """Flag the heads ``head_idx``, and charge them the head's setup cost
    and every other node of ``alive_idx`` the member's."""
    net.head[head_idx] = True
    charge = np.zeros(len(net))
    charge[alive_idx] = costs.member
    charge[head_idx] = costs.head
    net.debit(slice(None), charge)


def _join_nearest(net: Network, alive_idx, head_idx, costs: ElectionCosts) -> None:
    """Install ``head_idx`` (ascending) as the heads of clusters 0, 1, ...
    and let every other alive node join the nearest of them.

    Every node is measured from each head in one ``(heads, S)`` row
    gather of :meth:`~chsim.network.Network.gaps` (kept once per run when
    nodes stand still), and the alive nodes' columns pick their heads."""
    _install(net, head_idx, alive_idx, costs)
    # one row per head; argmin takes the first minimum, so a tie goes to the lower head id
    net.cluster[alive_idx] = net.gaps(head_idx).argmin(axis=0)[alive_idx]
    # a head heads its own cluster, even where another head stands as close
    net.cluster[head_idx] = np.arange(len(head_idx))


def _group_starts(sorted_labels: np.ndarray) -> np.ndarray:
    """Positions where a new label begins in an array sorted by label."""
    return np.nonzero(np.concatenate(([True], sorted_labels[1:] != sorted_labels[:-1])))[0]


def dchne_elect(net: Network, c: int, costs: ElectionCosts, partition_rng=None) -> None:
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
    if len(alive_idx) == 0:
        return
    ids, labels = alive_idx, net.cluster[alive_idx]
    if labels.min() < 0:  # an alive node has no cluster yet, as before the first round
        if (labels == NO_CLUSTER).all():
            if partition_rng is None:
                raise ValueError("initial cluster formation needs a partition rng")
            labels = geometric_partition(
                net.positions[alive_idx], min(c, len(alive_idx)), partition_rng
            )
        clustered = labels != NO_CLUSTER
        ids, labels = alive_idx[clustered], labels[clustered]
    # by cluster, then highest residual; ids ascend and lexsort is stable, so ties
    # keep the lowest id first: each cluster's winner comes first
    order = np.lexsort((-net.residual[ids], labels))
    winners = ids[order][_group_starts(labels[order])]
    _join_nearest(net, alive_idx, np.sort(winners), costs)


def dchne_reelect_cluster(net: Network, cluster: int, costs: ElectionCosts) -> int | None:
    """Re-run the residual-energy election inside one cluster whose head
    died, leaving all other clusters untouched.

    Only that cluster's alive members receive the trigger and pay setup
    costs; membership does not change.  Returns the new head's array
    index, or ``None`` if the cluster has no alive member left.
    """
    members = _trigger(net, net.alive & (net.cluster == cluster), costs.trigger)
    if len(members) == 0:
        return None
    winner = _argmax_residual(net, members)
    _install(net, np.array([winner]), members, costs)
    return winner


def leach_elect(
    net: Network, c: int, round_index: int, costs: ElectionCosts, rng, headed: set[int]
) -> None:
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
    if len(alive_idx) == 0:
        return
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
    _join_nearest(net, alive_idx, head_idx, costs)


class HeadRing:
    """Round-robin headship of one run's frozen clusters, kept as a ring.

    ``next[i]`` is the next alive member of node ``i``'s cluster after
    ``i`` in cyclic ascending-id order, for every clustered node, dead
    ones too, since a cluster's last head may be dead.  ``last[j]`` is
    cluster ``j``'s last head, and ``live`` the clusters with an alive
    member, ascending.  A round's heads are ``next[last[live]]``.

    The ring stays unformed (``last`` is ``None``) until :meth:`form`.
    It holds the nodes alive when it last looked; a node that has died
    since is spliced out of it, in any order: whoever pointed to it
    points to its successor, and a node that was its own successor takes
    its cluster out of ``live``.  Clusters never gain members, so a
    cluster left without one stays out.
    """

    def __init__(self) -> None:
        self.last: np.ndarray | None = None

    def form(self, net: Network, last) -> None:
        """Start the rotation from ``net``'s clusters as they stand, with
        ``last[j]`` the last head of cluster ``j``, dead or alive."""
        s = len(net)
        ids = np.flatnonzero(net.cluster != NO_CLUSTER)
        labels = net.cluster[ids]
        alive = net.alive[ids]
        span = s + 1
        keys = labels * span + ids
        # the alive members' keys by cluster and ascending id, closed by a key of no cluster
        members = np.append(np.sort(keys[alive]), -1)
        later = members[np.searchsorted(members[:-1], keys, side="right")]
        first = members[np.searchsorted(members[:-1], labels * span)]  # on wrap-around
        succ = np.where(later // span == labels, later, first)
        self.next = np.arange(s)  # a node of no cluster, or of none alive, stands alone
        self.next[ids] = np.where(succ // span == labels, succ % span, ids)
        self.last = np.array(last, dtype=np.intp)
        # not np.unique, whose first call imports numpy.ma: 1.1 MiB more peak memory in compare
        self.live = np.flatnonzero(np.bincount(labels[alive], minlength=len(self.last)))
        self.held = net.alive  # a fresh array
        self.count = int(np.count_nonzero(self.held))

    def turn(self, net: Network, n_alive: int) -> np.ndarray:
        """Splice out the nodes that died since the last turn (``n_alive``
        are left), advance every live cluster's headship and return its
        new heads."""
        if n_alive < self.count:
            nxt = self.next
            for d in np.flatnonzero(self.held & ~net.alive).tolist():
                after = nxt[d]
                if after == d:  # its cluster's last alive member
                    self.live = self.live[self.live != net.cluster[d]]
                else:
                    nxt[nxt == d] = after
            self.held = net.alive
            self.count = n_alive
        heads = self.next[self.last[self.live]]
        self.last[self.live] = heads
        return heads


def rrch_elect(
    net: Network, c: int, round_index: int, costs: ElectionCosts, ring: HeadRing,
    partition_rng=None,
) -> None:
    """Round-robin headship inside clusters that are formed once and frozen.

    The first call (``ring`` unformed) forms clusters and picks first
    heads exactly like :func:`dchne_elect`, and forms ``ring`` from them;
    afterwards ``net.cluster`` never changes and each cluster's headship
    advances to the next alive member in cyclic ascending-id order,
    skipping dead nodes, read from the ring.  If the trigger kills every
    node in the first call, no ring is formed and the next call forms
    clusters again.  Charges are as in :func:`dchne_elect`.
    """
    if ring.last is None:
        dchne_elect(net, c, costs, partition_rng)
        # dchne's heads ascend by id, which is their clusters' order
        heads = np.flatnonzero(net.head)
        if len(heads):
            ring.form(net, heads)
        return
    if round_index < 0:
        raise ValueError(f"round index must be >= 0, got {round_index}")
    alive_idx = _new_round(net, costs)
    if len(alive_idx) == 0:
        return
    _install(net, ring.turn(net, len(alive_idx)), alive_idx, costs)
