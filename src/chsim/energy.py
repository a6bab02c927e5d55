"""First-order radio energy model for clustered sensor networks.

All costs are returned in joules; inputs are bits and meters throughout.
A member-to-head transmission pays the free-space amplifier for the mean
squared member distance in an ``A x A`` arena split into ``C`` clusters,
``A^2 / (2*pi*C)``.  The head-to-base-station hop pays the two-ray
amplifier, which grows with the fourth power of distance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import ControlMessageSizes, EnergyParams

__all__ = [
    "tx_intra",
    "tx_to_bs",
    "rx_cluster",
    "sched_energy",
    "setup_energy_chn",
    "setup_energy_nchn",
    "ElectionCosts",
    "election_costs",
    "frame_consumption_chn",
    "head_uplink",
    "frame_consumption_nchn",
]


def _check_bits(d_bits: float) -> None:
    if d_bits < 0:
        raise ValueError(f"data size must be >= 0 bits, got {d_bits!r}")


def tx_intra(d_bits: float, area_side: float, clusters: int, params: EnergyParams) -> float:
    """Energy for one node to transmit ``d_bits`` to its cluster head.

    Args:
        d_bits: message size in bits.
        area_side: arena side length ``A`` in meters.
        clusters: cluster count ``C`` splitting the arena.
        params: energy coefficients.

    Returns:
        ``d*e_radio + d*e_amp*A^2/(2*pi*C)`` in joules.
    """
    _check_bits(d_bits)
    if area_side < 0:
        raise ValueError(f"area side must be >= 0, got {area_side!r}")
    if clusters < 1:
        raise ValueError(f"cluster count must be >= 1, got {clusters!r}")
    amp = params.e_amp * area_side * area_side / (2.0 * math.pi * clusters)
    return d_bits * params.e_radio + d_bits * amp


def tx_to_bs(d_bits: float, r: float, params: EnergyParams) -> float:
    """Energy for a cluster head to forward ``d_bits`` over distance ``r``
    to the base station, on the two-ray fading channel."""
    _check_bits(d_bits)
    if r < 0:
        raise ValueError(f"distance must be >= 0, got {r!r}")
    # -0.0 is the additive identity of every float, signed zeros included
    return _uplink(-0.0, d_bits, r, params)


def _uplink(base, d_bits: float, r, params: EnergyParams):
    """``base + d*e_radio + d*e_mh*r^4``, summed left to right: the order
    whose rounding the traces pin.  Unchecked; ``r`` may be an array."""
    return base + d_bits * params.e_radio + d_bits * params.e_mh * r**4


def _per_member(d_bits: float, s: int, c: int, coeff: float) -> float:
    """``d_bits * coeff`` for each of a head's ``S/C - 1`` members
    (real-valued average cluster size)."""
    _check_bits(d_bits)
    if c < 1:
        raise ValueError(f"cluster count must be >= 1, got {c!r}")
    if s < c:
        raise ValueError(f"node count {s!r} must be >= cluster count {c!r}")
    return d_bits * coeff * (s / c - 1.0)


def rx_cluster(d_bits: float, s: int, c: int, params: EnergyParams) -> float:
    """Energy for a head to receive a ``d_bits`` message from each of its
    ``S/C - 1`` members (real-valued average cluster size)."""
    return _per_member(d_bits, s, c, params.e_radio)


def sched_energy(d_bits: float, s: int, c: int, params: EnergyParams) -> float:
    """Energy for a head to schedule its ``S/C - 1`` members' slots."""
    return _per_member(d_bits, s, c, params.e_sched)


def setup_energy_chn(
    msgs: ControlMessageSizes,
    area_side: float,
    s: int,
    c: int,
    params: EnergyParams,
) -> float:
    """Setup-phase energy charged to an elected cluster head.

    The head transmits the advertise, synchronize and join messages to
    its cluster and receives each one's replies from the members; the
    cost is the six-term sum of those transmissions and receptions.
    """
    total = 0.0
    for size in (msgs.d_adv, msgs.d_syn, msgs.d_join):
        total += tx_intra(size, area_side, c, params)
        total += rx_cluster(size, s, c, params)
    return total


def setup_energy_nchn(
    msgs: ControlMessageSizes,
    area_side: float,
    c: int,
    params: EnergyParams,
) -> float:
    """Setup-phase energy charged to a cluster member: receive the
    advertisement, transmit the join request, receive the schedule."""
    return (
        msgs.d_adv * params.e_radio
        + tx_intra(msgs.d_join, area_side, c, params)
        + msgs.d_syn * params.e_radio
    )


class ElectionCosts(NamedTuple):
    """Per-node charges of one election, in joules."""

    trigger: float  # the base-station preamble, received by every candidate
    head: float  # each winner's setup handshake plus its announce multicast
    member: float  # each member's setup handshake


def election_costs(
    msgs: ControlMessageSizes, area_side: float, s: int, c: int, params: EnergyParams
) -> ElectionCosts:
    """The charges of an election at network size ``s`` and cluster count ``c``."""
    return ElectionCosts(
        trigger=msgs.d_preamble * params.e_radio,
        head=setup_energy_chn(msgs, area_side, s, c, params)
        + tx_intra(msgs.d_announce, area_side, c, params),
        member=setup_energy_nchn(msgs, area_side, c, params),
    )


def frame_consumption_chn(n_members, d_size: float, r_bs, s: int, c: int, params: EnergyParams):
    """Per-frame energy for a head serving ``n_members`` transmitting members.

    Receives and aggregates one ``d_size`` packet per member, schedules
    the cluster, and forwards one aggregated ``d_size`` packet to the
    base station at distance ``r_bs``.  ``n_members`` and ``r_bs`` may
    also be arrays with one entry per head.
    """
    if np.asarray(n_members).min(initial=0) < 0:
        raise ValueError(f"member count must be >= 0, got {n_members!r}")
    if np.asarray(r_bs).min(initial=0) < 0:
        raise ValueError(f"distance must be >= 0, got {r_bs!r}")
    _check_bits(d_size)
    uplink = head_uplink(d_size, r_bs, s, c, params)
    return _frame_consumption_chn(n_members, d_size, uplink, params)


def head_uplink(d_size: float, r_bs, s: int, c: int, params: EnergyParams):
    """A head's frame energy besides its members' packets: scheduling the
    cluster and forwarding one aggregated ``d_size`` packet over ``r_bs``
    to the base station.  Unchecked; ``r_bs`` may be an array of any
    shape, so a run computes it once for every node, or, when nodes move,
    once per segment for the live heads along their paths."""
    return _uplink(sched_energy(d_size, s, c, params), d_size, r_bs, params)


def _frame_consumption_chn(n_members, d_size: float, uplink, params: EnergyParams):
    """:func:`frame_consumption_chn` without its argument checks, from the
    head's :func:`head_uplink`: ``n_members * d_size * (e_radio + e_agg)
    + uplink``, for a caller whose counts, distances and data size cannot
    be negative."""
    return n_members * (d_size * (params.e_radio + params.e_agg)) + uplink


def frame_consumption_nchn(d_size: float, area_side: float, c: int, params: EnergyParams) -> float:
    """Per-frame energy for a member transmitting one ``d_size``-bit
    packet to its cluster head."""
    return tx_intra(d_size, area_side, c, params)
