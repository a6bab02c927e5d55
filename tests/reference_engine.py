"""The frame-by-frame engine that :func:`chsim.simulator.run` replaced,
kept as a test oracle, with frozen copies of the per-cluster and
per-frame code that chsim has since vectorized.

``reference_run(cfg)`` advances one frame at a time, with a dozen small
numpy calls per frame and a ``debit`` for every charge.  It is slow but
plain, so the differential tests hold the segment engine to its exported
bytes.  It does not run chsim's elections or mobility: ``_dchne_elect``
takes one ``argmax`` per cluster, ``_rrch_elect`` walks each cluster's
roster, ``_join_nearest`` sums a members x heads x 2 delta array, and
mobility folds every coordinate every frame, as chsim did before it took
these loops out.  Its elections charge by index, one ``debit`` for the
trigger's nodes, the heads and the members each, as chsim did before its
elections charged one full-length vector.
``step_mobility_rows`` keeps the per-row mobility loop that came between,
the oracle of chsim's accumulated mobility blocks.
"""

from __future__ import annotations

import math

import numpy as np

from chsim.arena import LEACH_DRAWS, MOBILITY, PARTITION, SCENARIO, place_nodes, substream
from chsim.config import SimConfig
from chsim.election import _argmax_residual, geometric_partition
from chsim.energy import election_costs, frame_consumption_chn, frame_consumption_nchn
from chsim.network import NO_CLUSTER, Network
from chsim.simulator import SimTrace


def _reflect(coords: np.ndarray, side: float) -> np.ndarray:
    folded = np.mod(coords, 2.0 * side)
    return np.where(folded > side, 2.0 * side - folded, folded)


def _step_mobility(positions: np.ndarray, side_a: float, speed: float, rng) -> np.ndarray:
    """One frame of movement, every coordinate folded."""
    theta = rng.uniform(0.0, 2.0 * math.pi, size=len(positions))
    step = speed * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return _reflect(positions + step, side_a)


def step_mobility_rows(positions: np.ndarray, side_a: float, speed: float, rng,
                       frames: int) -> np.ndarray:
    """A block of movement one frame row at a time, folding only the
    coordinates that left the arena: ``chsim.arena.step_mobility`` before
    it accumulated the block and redid only the coordinates that reach a
    wall."""
    positions = np.asarray(positions, dtype=float)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(frames, len(positions)))
    path = speed * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    for row in path:
        np.add(positions, row, out=row)
        outside = (row < 0.0) | (row > side_a)
        if outside.any():
            row[outside] = _reflect(row[outside], side_a)
        positions = row
    return path


def _trigger(net: Network, idx: np.ndarray, cost: float) -> np.ndarray:
    net.debit(idx, cost)
    return idx[net.alive[idx]]


def _new_round(net: Network, costs) -> np.ndarray:
    net.head[:] = False
    return _trigger(net, np.nonzero(net.alive)[0], costs.trigger)


def _install(net: Network, head_idx, member_idx, costs) -> tuple[int, ...]:
    net.debit(head_idx, costs.head)
    if len(member_idx):
        net.debit(member_idx, costs.member)
    net.head[head_idx] = True
    return tuple(head_idx.tolist())


def _non_heads(net: Network, alive_idx: np.ndarray, head_idx: np.ndarray) -> np.ndarray:
    is_head = np.zeros(len(net), dtype=bool)
    is_head[head_idx] = True
    return alive_idx[~is_head[alive_idx]]


def dchne_reelect_cluster(net: Network, cluster: int, costs) -> int | None:
    members = _trigger(net, np.nonzero(net.alive & (net.cluster == cluster))[0], costs.trigger)
    if len(members) == 0:
        return None
    winner = _argmax_residual(net, members)
    _install(net, np.array([winner]), members[members != winner], costs)
    return winner


def _join_nearest(net: Network, alive_idx, head_idx, costs) -> tuple[int, ...]:
    member_idx = _non_heads(net, alive_idx, head_idx)
    deltas = net.positions[member_idx][:, None, :] - net.positions[head_idx][None, :, :]
    net.cluster[head_idx] = np.arange(len(head_idx))
    net.cluster[member_idx] = (deltas**2).sum(axis=2).argmin(axis=1)
    return _install(net, head_idx, member_idx, costs)


def _dchne_elect(net: Network, c: int, costs, partition_rng) -> tuple[int, ...]:
    alive_idx = _new_round(net, costs)
    if len(alive_idx) == 0:
        return ()
    labels = net.cluster[alive_idx]
    if np.all(labels == NO_CLUSTER):
        labels = geometric_partition(
            net.positions[alive_idx], min(c, len(alive_idx)), partition_rng
        )
    heads = [
        _argmax_residual(net, alive_idx[labels == lab])
        for lab in np.unique(labels[labels != NO_CLUSTER])
    ]
    return _join_nearest(net, alive_idx, np.array(sorted(heads), dtype=int), costs)


def _leach_elect(net: Network, c: int, round_index: int, costs, rng, headed: set[int]):
    s = len(net)
    draws = rng.random(s)
    alive_idx = _new_round(net, costs)
    if len(alive_idx) == 0:
        return ()
    epoch = math.ceil(s / c)
    if round_index % epoch == 0:
        headed.clear()
    p = c / s
    threshold = p / (1.0 - p * (round_index % epoch))
    eligible = net.alive
    eligible[list(headed)] = False
    head_idx = np.nonzero(eligible & (draws < threshold))[0]
    if len(head_idx) == 0:
        head_idx = np.array([_argmax_residual(net, alive_idx)])
    headed.update(head_idx.tolist())
    return _join_nearest(net, alive_idx, head_idx, costs)


def _rrch_elect(net: Network, c: int, costs, prev_head: dict[int, int], partition_rng):
    if not prev_head:
        head_ids = _dchne_elect(net, c, costs, partition_rng)
        prev_head.update(enumerate(head_ids))
        return head_ids
    alive_idx = _new_round(net, costs)
    if len(alive_idx) == 0:
        return ()
    labels = net.cluster[alive_idx]
    heads: list[int] = []
    for lab in np.unique(labels).tolist():
        roster = alive_idx[labels == lab]
        later = roster[roster > prev_head[lab]]
        prev_head[lab] = int(later[0] if len(later) else roster[0])
        heads.append(prev_head[lab])
    head_idx = np.array(heads, dtype=int)
    return _install(net, head_idx, _non_heads(net, alive_idx, head_idx), costs)


def reference_run(cfg: SimConfig) -> SimTrace:
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
    headed: set[int] = set()
    prev_head: dict[int, int] = {}

    costs = election_costs(msgs, arena.side_a, s, c, params)
    member_tx = frame_consumption_nchn(scen.d_size, arena.side_a, c, params)

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
            if cfg.policy == "dchne":
                _dchne_elect(net, c, costs, partition_rng)
            elif cfg.policy == "leach":
                _leach_elect(net, c, round_index, costs, leach_rng, headed)
            else:
                _rrch_elect(net, c, costs, prev_head, partition_rng)
        elif cfg.policy == "dchne":
            for dead in dead_heads:
                label = int(net.cluster[dead])
                winner = dchne_reelect_cluster(net, label, costs)
                reelections.append((frame, label, winner))

        if cfg.mobility_speed > 0.0:
            net.positions = _step_mobility(
                net.positions, arena.side_a, cfg.mobility_speed, mobility_rng
            )
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
        residual_log=None if residual_log is None else np.array(residual_log).reshape(-1, s),
    )
