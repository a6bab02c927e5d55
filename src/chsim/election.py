"""Cluster-head election policies and cluster membership assignment.

Three policies share one charge structure (base-station preamble to every
alive candidate, setup handshake for the winners and members, announce
multicast by each new head) and differ only in how winners are picked:

* residual-energy argmax within each current cluster (the default),
* probabilistic self-election with an epoch rotation constraint (LEACH),
* fixed clusters with round-robin headship in ascending node-id order (RRCH).

A policy writes its charges, head flags and cluster labels into the
:class:`~chsim.network.Network` it is given and returns only the tuple
of elected head ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    ControlMessageSizes,
    EnergyParams,
    setup_energy_chn,
    setup_energy_nchn,
    tx_intra,
)
from .network import NO_CLUSTER, Network

__all__ = [
    "EmptyNetworkError",
    "geometric_partition",
    "dchne_elect",
    "dchne_reelect_cluster",
    "LeachState",
    "leach_elect",
    "RrchState",
    "rrch_elect",
]


class EmptyNetworkError(ValueError):
    """An election was attempted with no alive node left."""


def geometric_partition(positions, k: int, rng, iterations: int = 20) -> np.ndarray:
    """Split points into ``k`` spatial groups with a fixed-iteration k-means.

    Runs exactly ``iterations`` assignment/update sweeps from a random
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
    for _ in range(iterations):
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


def _nearest_head(net: Network, member_idx: np.ndarray, head_idx: np.ndarray) -> np.ndarray:
    """Cluster number (position within ``head_idx``) of the closest head
    for each member."""
    deltas = net.positions[member_idx][:, None, :] - net.positions[head_idx][None, :, :]
    return (deltas**2).sum(axis=2).argmin(axis=1)


def _charge_preamble(net: Network, msgs: ControlMessageSizes, params: EnergyParams) -> np.ndarray:
    """Charge the base-station trigger to every alive node and return the
    indices still alive afterwards."""
    alive_idx = np.nonzero(net.alive)[0]
    if len(alive_idx) == 0:
        raise EmptyNetworkError("no alive nodes to elect from")
    net.debit(alive_idx, msgs.d_preamble * params.e_radio)
    alive_idx = np.nonzero(net.alive)[0]
    if len(alive_idx) == 0:
        raise EmptyNetworkError("no node survived the election trigger")
    return alive_idx


def _setup_costs(
    net: Network,
    c: int,
    params: EnergyParams,
    msgs: ControlMessageSizes,
    area_side: float,
) -> tuple[float, float]:
    """(head, member) setup-phase cost per node, at the configured network
    size and cluster count."""
    s = len(net)
    head_cost = setup_energy_chn(msgs, area_side, s, c, params) + tx_intra(
        msgs.d_announce, area_side, c, params
    )
    member_cost = setup_energy_nchn(msgs, area_side, c, params)
    return head_cost, member_cost


def _install(
    net: Network,
    head_idx: np.ndarray,
    head_cluster: np.ndarray,
    member_idx: np.ndarray,
    member_cluster: np.ndarray,
    cost_head: float,
    cost_member: float,
) -> tuple[int, ...]:
    """Charge setup costs, write head/cluster state, return the head ids."""
    net.debit(head_idx, cost_head)
    if len(member_idx):
        net.debit(member_idx, cost_member)
    net.head[:] = False
    net.head[head_idx] = True
    net.cluster[head_idx] = head_cluster
    net.cluster[member_idx] = member_cluster
    return tuple(head_idx.tolist())


def dchne_elect(
    net: Network,
    c: int,
    params: EnergyParams,
    msgs: ControlMessageSizes,
    area_side: float,
    partition_rng=None,
) -> tuple[int, ...]:
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
    alive_idx = _charge_preamble(net, msgs, params)
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
    head_idx = np.array(sorted(heads), dtype=int)
    member_idx = alive_idx[~np.isin(alive_idx, head_idx)]
    member_cluster = _nearest_head(net, member_idx, head_idx)
    cost_head, cost_member = _setup_costs(net, c, params, msgs, area_side)
    return _install(
        net, head_idx, np.arange(len(head_idx)), member_idx, member_cluster, cost_head, cost_member
    )


def dchne_reelect_cluster(
    net: Network,
    cluster: int,
    c: int,
    params: EnergyParams,
    msgs: ControlMessageSizes,
    area_side: float,
) -> int | None:
    """Re-run the residual-energy election inside one cluster whose head
    died, leaving all other clusters untouched.

    Only that cluster's alive members receive the trigger and pay setup
    costs; membership does not change.  Returns the new head's array
    index, or ``None`` if the cluster has no alive member left.
    """
    members = np.nonzero(net.alive & (net.cluster == cluster))[0]
    if len(members) == 0:
        return None
    net.debit(members, msgs.d_preamble * params.e_radio)
    members = np.nonzero(net.alive & (net.cluster == cluster))[0]
    if len(members) == 0:
        return None
    winner = _argmax_residual(net, members)
    cost_head, cost_member = _setup_costs(net, c, params, msgs, area_side)
    net.debit(np.array([winner]), cost_head)
    rest = members[members != winner]
    if len(rest):
        net.debit(rest, cost_member)
    net.head[winner] = True
    return winner


@dataclass
class LeachState:
    """Epoch memory for the probabilistic rotation policy: ids that have
    already served as head in the current epoch."""

    headed: set[int] = field(default_factory=set)


def leach_elect(
    net: Network,
    c: int,
    round_index: int,
    params: EnergyParams,
    msgs: ControlMessageSizes,
    area_side: float,
    rng,
    state: LeachState,
) -> tuple[int, ...]:
    """Probabilistic self-election with per-epoch rotation.

    Each alive node that has not yet headed in the current epoch
    self-elects when its uniform draw falls below
    ``T = P / (1 - P * (round mod ceil(1/P)))`` with ``P = c / S``.  The
    epoch length ``ceil(S/c)`` makes ``T >= 1`` in the final epoch round,
    so every node serves at least once per epoch.  If nobody self-elects,
    the globally highest-residual node is drafted so the round still has
    a head.  Charges and nearest-head membership work exactly as in
    :func:`dchne_elect`.

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
    alive_idx = _charge_preamble(net, msgs, params)
    epoch = math.ceil(s / c)
    if round_index % epoch == 0:
        state.headed.clear()
    p = c / s
    threshold = p / (1.0 - p * (round_index % epoch))
    eligible = net.alive  # a fresh array, so masking it changes no state
    eligible[list(state.headed)] = False
    head_idx = np.nonzero(eligible & (draws < threshold))[0]
    if len(head_idx) == 0:
        head_idx = np.array([_argmax_residual(net, alive_idx)])
    state.headed.update(head_idx.tolist())
    member_idx = alive_idx[~np.isin(alive_idx, head_idx)]
    member_cluster = _nearest_head(net, member_idx, head_idx)
    cost_head, cost_member = _setup_costs(net, c, params, msgs, area_side)
    return _install(
        net, head_idx, np.arange(len(head_idx)), member_idx, member_cluster, cost_head, cost_member
    )


@dataclass
class RrchState:
    """Frozen cluster map and rotation pointers for round-robin headship.

    ``membership[i]`` is node ``i``'s permanent cluster once formed;
    ``prev_head`` remembers, per cluster, the array index of the last
    head so rotation can continue from there.
    """

    membership: np.ndarray | None = None
    prev_head: dict[int, int] = field(default_factory=dict)


def rrch_elect(
    net: Network,
    c: int,
    round_index: int,
    params: EnergyParams,
    msgs: ControlMessageSizes,
    area_side: float,
    state: RrchState,
    partition_rng=None,
) -> tuple[int, ...]:
    """Round-robin headship inside clusters that are formed once and frozen.

    The first call forms clusters (and picks first heads) exactly like
    :func:`dchne_elect`; afterwards membership never changes and each
    cluster's headship advances to the next alive member in cyclic
    ascending-id order, skipping dead nodes.  Charges are as in
    :func:`dchne_elect`.
    """
    if state.membership is None:
        head_ids = dchne_elect(net, c, params, msgs, area_side, partition_rng)
        state.membership = net.cluster.copy()
        state.prev_head = {int(net.cluster[i]): i for i in np.nonzero(net.head)[0]}
        return head_ids
    if round_index < 0:
        raise ValueError(f"round index must be >= 0, got {round_index}")
    alive_idx = _charge_preamble(net, msgs, params)
    heads: list[int] = []
    for lab in sorted(int(k) for k in np.unique(state.membership)):
        roster = np.nonzero(net.alive & (state.membership == lab))[0]
        if len(roster) == 0:
            continue
        later = roster[roster > state.prev_head[lab]]
        new_head = int(later[0] if len(later) else roster[0])
        state.prev_head[lab] = new_head
        heads.append(new_head)
    if not heads:
        raise EmptyNetworkError("no cluster has an alive member")
    head_idx = np.array(heads, dtype=int)
    member_idx = alive_idx[~np.isin(alive_idx, head_idx)]
    cost_head, cost_member = _setup_costs(net, c, params, msgs, area_side)
    return _install(
        net, head_idx, state.membership[head_idx],
        member_idx, state.membership[member_idx], cost_head, cost_member,
    )
