"""First-order radio energy model for clustered sensor networks.

All costs are returned in joules; inputs are bits and meters throughout.
A member-to-head transmission pays the free-space amplifier for the mean
squared member distance in an ``A x A`` arena split into ``C`` clusters,
``A^2 / (2*pi*C)``.  The head-to-base-station hop pays the two-ray
amplifier, which grows with the fourth power of distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "EnergyParams",
    "ControlMessageSizes",
    "tx_intra",
    "tx_to_bs",
    "rx_cluster",
    "sched_energy",
    "setup_energy_chn",
    "setup_energy_nchn",
    "frame_consumption_chn",
    "frame_consumption_nchn",
]


@dataclass(frozen=True)
class EnergyParams:
    """Radio, amplifier, scheduling and aggregation coefficients.

    Defaults: 40 nJ/bit radio electronics, 9 pJ/bit/m^2 free-space
    amplifier, 0.0011 pJ/bit/m^4 two-ray amplifier, 6 nJ/bit/message
    aggregation.  Scheduling uses the same electronics as the radio
    (40 nJ/bit) unless overridden.
    """

    e_radio: float = 40e-9
    e_amp: float = 9e-12
    e_mh: float = 0.0011e-12
    e_sched: float = 40e-9
    e_agg: float = 6e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ControlMessageSizes:
    """Sizes in bits of the control messages exchanged around an election.

    ``d_adv``/``d_syn``/``d_join`` form the advertise/synchronize/join
    handshake of the setup phase; ``d_preamble`` is the base-station
    trigger received by every candidate and ``d_announce`` the winner's
    multicast.  Defaults are 200 bits (25 bytes) each.
    """

    d_adv: int = 200
    d_syn: int = 200
    d_join: int = 200
    d_preamble: int = 200
    d_announce: int = 200

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0 or value != int(value):
                raise ValueError(f"{f.name} must be a whole non-negative bit count")


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
    return d_bits * params.e_radio + d_bits * params.e_mh * r**4


def rx_cluster(d_bits: float, s: int, c: int, params: EnergyParams) -> float:
    """Energy for a head to receive a ``d_bits`` message from each of its
    ``S/C - 1`` members (real-valued average cluster size)."""
    _check_bits(d_bits)
    if c < 1:
        raise ValueError(f"cluster count must be >= 1, got {c!r}")
    if s < c:
        raise ValueError(f"node count {s!r} must be >= cluster count {c!r}")
    return d_bits * params.e_radio * (s / c - 1.0)


def sched_energy(d_bits: float, s: int, c: int, params: EnergyParams) -> float:
    """Energy for a head to schedule its ``S/C - 1`` members' slots."""
    _check_bits(d_bits)
    if c < 1:
        raise ValueError(f"cluster count must be >= 1, got {c!r}")
    if s < c:
        raise ValueError(f"node count {s!r} must be >= cluster count {c!r}")
    return d_bits * params.e_sched * (s / c - 1.0)


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
    per_member = d_size * (params.e_radio + params.e_agg)
    # sched_energy + tx_to_bs, summed in the order whose rounding the traces pin
    return n_members * per_member + (
        sched_energy(d_size, s, c, params)
        + d_size * params.e_radio
        + d_size * params.e_mh * r_bs**4
    )


def frame_consumption_nchn(
    d_size: float,
    n_packets: int,
    area_side: float,
    c: int,
    params: EnergyParams,
) -> float:
    """Per-frame energy for a member transmitting ``n_packets`` packets of
    ``d_size`` bits each to its cluster head."""
    if n_packets < 0:
        raise ValueError(f"packet count must be >= 0, got {n_packets!r}")
    return n_packets * tx_intra(d_size, area_side, c, params)
