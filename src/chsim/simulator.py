"""Frame-stepped network simulation: elections, sensing, energy depletion.

A run advances frame by frame.  On every round boundary (each
``frames_per_round`` frames) the configured policy elects heads; in
between, awake members with an event transmit one data packet to their
head, which receives, aggregates, schedules and forwards one packet to
the base station.  All consumption is debited against node batteries;
nodes die when they hit zero and the trace records the alive count,
cumulative deliveries and head set of every frame.  A run trusts its
config, which checked its own fields when built (:mod:`chsim.config`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .arena import (
    LEACH_DRAWS,
    MOBILITY,
    PARTITION,
    SCENARIO,
    place_nodes,
    step_mobility,
    substream,
)
from .config import SimConfig
from .election import (
    EmptyNetworkError,
    dchne_elect,
    dchne_reelect_cluster,
    leach_elect,
    rrch_elect,
)
from .energy import election_costs, frame_consumption_chn, frame_consumption_nchn
from .network import Network

__all__ = ["SimTrace", "run", "network_lifetime"]


@dataclass(eq=False)
class SimTrace:
    """Per-frame history and final energy books of one run.

    Columns (``alive``, ``packets_cum``, ``chn_count``) are parallel
    arrays indexed by frame.  Head sets are stored as change points
    (``head_change_frames`` ascending, with the head ids that took over
    at each) and expanded on demand; ``reelections`` lists mid-round
    replacements of dead heads as (frame, cluster, new head id or None).
    """

    config: SimConfig
    termination: str
    alive: np.ndarray
    packets_cum: np.ndarray
    chn_count: np.ndarray
    head_change_frames: tuple[int, ...]
    head_change_ids: tuple[tuple[int, ...], ...]
    reelections: tuple[tuple[int, int, int | None], ...]
    final_residual: np.ndarray
    final_consumed: np.ndarray
    initial_energy_per_node: np.ndarray
    residual_log: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.alive)

    def chn_ids_at(self, frame: int) -> tuple[int, ...]:
        if not 0 <= frame < len(self):
            raise IndexError(f"frame {frame} outside recorded range 0..{len(self) - 1}")
        slot = bisect.bisect_right(self.head_change_frames, frame) - 1
        return self.head_change_ids[slot] if slot >= 0 else ()


def run(cfg: SimConfig) -> SimTrace:
    """Execute one seeded run to completion and return its trace.

    Deterministic: the arena seed feeds independent substreams for
    placement, mobility, scenario draws, self-election draws and the
    initial geometric split, so two runs of the same config are
    identical and runs differing only in policy see the same
    environment.  A config whose energy costs overflow a float raises
    ValueError before the first frame.
    """
    arena = cfg.arena
    scen = cfg.scenario
    params, msgs = cfg.energy, cfg.msgs
    c = cfg.cluster_count
    net = Network(place_nodes(arena), cfg.initial_energy)
    s = len(net)
    bs = np.asarray(arena.bs_position, dtype=float)

    partition_rng = substream(arena.seed, PARTITION)
    scenario_rng = substream(arena.seed, SCENARIO)
    leach_rng = substream(arena.seed, LEACH_DRAWS)
    mobility_rng = substream(arena.seed, MOBILITY)
    headed: set[int] = set()  # LEACH: who has headed in the current epoch
    prev_head: dict[int, int] = {}  # RRCH: each cluster's last head

    costs = election_costs(msgs, arena.side_a, s, c, params)
    member_tx = frame_consumption_nchn(scen.d_size, 1, arena.side_a, c, params)
    # no head serves more than S members or sits farther out than a corner
    worst_head = frame_consumption_chn(s, scen.d_size, arena.bs_reach(), s, c, params)
    if not np.isfinite([member_tx, *costs, worst_head]).all():
        raise ValueError(f"energy costs overflow a float: {costs}, member frame {member_tx!r} J, "
                         f"head frame up to {worst_head!r} J")

    def distance_to_bs() -> np.ndarray:
        return np.hypot(net.positions[:, 0] - bs[0], net.positions[:, 1] - bs[1])

    r_bs = distance_to_bs()

    alive_log: list[int] = []
    packets_log: list[int] = []
    chn_count_log: list[int] = []
    change_frames: list[int] = []
    change_ids: list[tuple[int, ...]] = []
    reelections: list[tuple[int, int, int | None]] = []
    residual_log: list[np.ndarray] | None = [] if cfg.record_residuals else None
    packets = 0
    prev_heads: tuple[int, ...] | None = None
    termination = "max-frames"
    fpr = scen.frames_per_round

    for frame in range(cfg.max_frames):
        dead_heads = np.nonzero(net.head & ~net.alive)[0]
        net.head[dead_heads] = False
        if frame % fpr == 0:
            round_index = frame // fpr
            try:
                if cfg.policy == "dchne":
                    dchne_elect(net, c, costs, partition_rng)
                elif cfg.policy == "leach":
                    leach_elect(net, c, round_index, costs, leach_rng, headed)
                else:
                    rrch_elect(net, c, round_index, costs, prev_head, partition_rng)
            except EmptyNetworkError:
                pass
        elif cfg.policy == "dchne":
            # a cluster whose head died resumes under a fresh head right away
            for dead in dead_heads:
                label = int(net.cluster[dead])
                winner = dchne_reelect_cluster(net, label, costs)
                reelections.append((frame, label, winner))

        if cfg.mobility_speed > 0.0:
            net.positions = step_mobility(net.positions, arena.side_a, cfg.mobility_speed, mobility_rng)
            r_bs = distance_to_bs()

        awake = scenario_rng.random(s) < scen.duty_cycle
        events = scenario_rng.random(s) < scen.event_probability

        alive = net.alive
        active_heads = np.nonzero(net.head & alive)[0]
        tx_idx = np.nonzero(alive & ~net.head & awake & events & (net.cluster >= 0))[0]
        if len(tx_idx):
            net.debit(tx_idx, member_tx)
        if len(active_heads):
            counts = np.bincount(
                net.cluster[tx_idx], minlength=int(net.cluster[active_heads].max()) + 1
            )
            forwarding = awake[active_heads] & (
                (counts[net.cluster[active_heads]] > 0) | events[active_heads]
            )
            fwd = active_heads[forwarding]
            if len(fwd):
                inbound = counts[net.cluster[fwd]]
                net.debit(fwd, frame_consumption_chn(inbound, scen.d_size, r_bs[fwd], s, c, params))
                packets += int(inbound.sum()) + int(events[fwd].sum())

        alive = net.alive
        heads_now = tuple(np.nonzero(net.head & alive)[0].tolist())
        if heads_now != prev_heads:
            change_frames.append(frame)
            change_ids.append(heads_now)
            prev_heads = heads_now
        alive_log.append(int(alive.sum()))
        packets_log.append(packets)
        chn_count_log.append(len(heads_now))
        if residual_log is not None:
            residual_log.append(net.residual.copy())
        if not alive.any():
            termination = "all-dead"
            break

    return SimTrace(
        config=cfg,
        termination=termination,
        alive=np.array(alive_log, dtype=int),
        packets_cum=np.array(packets_log, dtype=np.int64),
        chn_count=np.array(chn_count_log, dtype=int),
        head_change_frames=tuple(change_frames),
        head_change_ids=tuple(change_ids),
        reelections=tuple(reelections),
        final_residual=net.residual.copy(),
        final_consumed=net.consumed.copy(),
        initial_energy_per_node=net.initial.copy(),
        residual_log=residual_log,
    )


def network_lifetime(trace: SimTrace, threshold: int):
    """First frame at which the alive count drops below ``threshold``,
    or ``None`` if it never does."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    below = np.nonzero(trace.alive < threshold)[0]
    return int(below[0]) if len(below) else None
