"""Segment-stepped network simulation: elections, sensing, energy depletion.

On every round boundary (each ``frames_per_round`` frames) the
configured policy elects heads; in between, awake members with an event
transmit one data packet to their head, which receives, aggregates,
schedules and forwards one packet to the base station.  Nodes die when
their battery hits zero, and the trace records the alive count,
cumulative deliveries and head set of every frame.

A run advances a segment at a time (next-event time advance).  Every
frame draws the same number of uniforms (and of angles, when nodes
move) whatever the network's state, so a block of frames (whole rounds,
where they fit) takes its traffic and its movement path at once.
The traffic depends on the seed and the scenario but not on the policy,
so one :class:`Traffic` can serve every policy's run of a seed: it
draws each block once and keeps it, packed, for the next run; scenario1,
where every node is always awake and senses an event, draws no traffic,
and one row of flags stands for every frame of a block.  The k-th angle
is the k-th draw of the seed's mobility stream whatever the node count
or policy, so one :class:`~chsim.arena.Headings` can serve every run of
a seed and speed: a block of S nodes from frame f asks it for the steps
from step f·S on, and moves the nodes by them in
:func:`~chsim.arena.step_mobility`.  It keeps the first steps that any
run asks for, which a block inside them reads as they are, with nothing
drawn.  Runs share both through one :class:`Draws`, which hands each
run those made for its config's key and makes fresh ones for any other.
A segment starts with the frame prelude: an election on a round
boundary, else, after a death, the dismissal of dead heads and dchne's
re-election of their clusters.  It reads the alive and head sets once,
charges the frames up to the next round boundary or the block's end on
the network as it then stands (pricing the uplinks of its live heads
only: once per run when nodes stand still, along the segment's path
when they move), as ``(k, S)`` rows or as one row for every frame when
neither the flags nor the uplinks differ between its frames, and
commits them in :func:`_commit` up to and including the first frame
with a death, as one :meth:`~chsim.network.Network.debit` per frame
would; the frame of a death is found in the columns of the nodes that
die.  With nobody alive, or a head killed by its setup charge, it is
one frame.  A run whose nodes stand still computes two things once:
every node's uplink, and, up to ``_KEPT_GAPS`` entries, the squared
distances between every pair of nodes, from which each election's join
gathers its heads' rows (:meth:`~chsim.network.Network.keep_gaps`).
A run trusts its config, which checked its own fields when built
(:mod:`chsim.config`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .arena import (
    LEACH_DRAWS,
    PARTITION,
    SCENARIO,
    Headings,
    place_nodes,
    step_mobility,
    substream,
)
from .config import EnergyParams, SimConfig
from .election import dchne_elect, dchne_reelect_cluster, leach_elect, rrch_elect
from .energy import (
    _frame_consumption_chn,
    election_costs,
    frame_consumption_nchn,
    head_uplink,
)
from .network import Network

__all__ = ["SimTrace", "Traffic", "Draws", "run", "network_lifetime"]

# Most matrix entries (frames x nodes) one block of frames may hold.  At
# 1 << 16 the peak memory of a scenario1 compare and of a mobile sweep
# rose by 6-8 %; at 1 << 14, by under 2 %.
_BLOCK_ENTRIES = 1 << 14
# Most entries (nodes x nodes) of the squared distances that a static run
# keeps for its elections' joins: 1 << 18 (2 MiB) keeps them up to 512
# nodes.  A mobile run's shared Headings keeps the same 2 MiB of steps
# (arena._KEPT_STEPS), so both kinds of run keep one budget.  Scenario1
# dchne runs with S // 19 clusters, the matrix kept against every join
# measured from positions, in-process alternating pairs on 2 cores
# (Python 3.11, numpy 2.4), median time ratio:
#   nodes  frames  kept/measured  pairs faster
#     400   2 000          0.90x      12 of 12
#     512   2 000          1.00x       7 of 10
#   1 000   1 500   1.03x / 0.90x   3 of 8 / 9 of 10 (two series)
#   2 000     600          0.98x       3 of 6
# Past about 500 nodes the gain is lost in the noise while the matrix
# grows as S squared (8 MB at 1 000 nodes, 32 MB at 2 000).
_KEPT_GAPS = 1 << 18
# The config fields a run's traffic depends on, and those its headings do.
_traffic_key = attrgetter("arena.seed", "arena.node_count", "scenario.duty_cycle",
                          "scenario.event_probability", "scenario.frames_per_round",
                          "max_frames")
_headings_key = attrgetter(*Headings.FIELDS)
# Frames the trace columns first hold room for: every run of the default
# profiles fits, and a huge max_frames grows them only as frames are run.
_FIRST_ROWS = 1 << 14


@dataclass(eq=False)
class SimTrace:
    """Per-frame history and final energy books of one run.

    Columns (``alive``, ``packets_cum``, ``chn_count``) are parallel
    int64 arrays indexed by frame, views of one ``(frames, 3)`` array:
    :func:`run` writes each frame's deliveries as it goes and, once the
    run ends, sums them and spreads its per-span alive and head counts
    over the frames.  ``residual_log``, when recorded, is the
    ``(frames, S)`` array of every node's residual after each frame.
    Head sets are stored as change points (``head_change_frames``
    ascending, with the head ids that took over at each);
    ``reelections`` lists mid-round replacements of dead heads as
    (frame, cluster, new head id or None).
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
    residual_log: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.alive)


class Traffic:
    """Who is awake and who senses an event in each frame of the runs of
    one seed, node count, duty cycle, event probability, round length
    and horizon, whatever their policy.

    The frames come in blocks of ``rows`` frames (whole rounds, where
    they fit), block ``i`` starting at frame ``i * rows``.  A block is
    drawn from the seed's ``SCENARIO`` substream, in block order, the
    first time a run asks for it, and kept as packed bits for the runs
    after it: 2 bits a node-frame, 0.58 MB for 12 000 frames of 190
    nodes, where bools would take 4.6 MB.  A traffic whose duty cycle and
    event probability are both 1.0 (scenario1) draws nothing: its nodes
    are always awake and always sense an event, so each of its blocks is
    one row that stands for every frame.  A traffic made with ``keep``
    false keeps no block: a block asked for again is drawn again, from a
    new generator advanced to it.  ``key`` holds the config fields it
    depends on, by which :class:`Draws` hands it out.
    """

    def __init__(self, cfg: SimConfig, keep: bool = True):
        scen = cfg.scenario
        self.key = _traffic_key(cfg)
        self._seed = cfg.arena.seed
        self._keeps = keep
        self._nodes = cfg.arena.node_count
        self._frames = cfg.max_frames
        rows = max(1, _BLOCK_ENTRIES // self._nodes)
        if rows > scen.frames_per_round:
            # whole rounds, so no segment ends short of an election
            rows -= rows % scen.frames_per_round
        self.rows = rows
        self._thresholds = np.array([scen.duty_cycle, scen.event_probability])[:, None, None]
        drawn = scen.duty_cycle < 1.0 or scen.event_probability < 1.0
        self._rng = substream(cfg.arena.seed, SCENARIO) if drawn else None
        self._packed: list[np.ndarray] = []
        self._next = 0  # the block _rng draws next

    def block(self, index: int) -> np.ndarray:
        """The awake and event flags of block ``index``, a ``(2, k, S)``
        bool array of its ``k`` frames, or ``(2, 1, S)`` for every frame
        of the block when the traffic draws nothing."""
        if self._rng is None:
            # random() < 1.0 always holds, and the scenario substream feeds nothing else
            return np.ones((2, 1, self._nodes), dtype=bool)
        if index < len(self._packed):
            return np.unpackbits(self._packed[index], axis=-1, count=self._nodes).view(bool)
        if index < self._next:  # drawn before and not kept (PCG64: one output per uniform)
            self._rng = substream(self._seed, SCENARIO)
            self._rng.bit_generator.advance(index * self.rows * 2 * self._nodes)
            self._next = index
        while self._next <= index:
            k = min(self._frames - self._next * self.rows, self.rows)
            draws = self._rng.random((k, 2, self._nodes))
            flags = np.less(draws.swapaxes(0, 1), self._thresholds,
                            out=np.empty((2, k, self._nodes), dtype=bool))
            if self._keeps:
                self._packed.append(np.packbits(flags, axis=-1))
            self._next += 1
        return flags


def _room(column: np.ndarray, rows: int, limit: int) -> np.ndarray:
    """``column`` if it holds ``rows`` rows, else a copy of it with room
    for twice as many rows as now (at least ``rows``, at most ``limit``)."""
    if rows <= len(column):
        return column
    grown = np.empty((min(max(rows, 2 * len(column)), limit), *column.shape[1:]), column.dtype)
    grown[: len(column)] = column
    return grown


def _frame_charges(net: Network, alive: np.ndarray, heads: np.ndarray, awake: np.ndarray,
                   sends: np.ndarray, uplink: np.ndarray, member_tx: float,
                   d_size: int, params: EnergyParams) -> tuple[np.ndarray, np.ndarray]:
    """The charges and deliveries of a segment's frames on the network as
    it stands.

    ``alive`` is ``net.alive``; ``heads`` are the ids of the alive heads,
    ascending, if any; ``awake`` and ``sends`` are the flags of who is
    awake and who is awake and senses an event, ``(k, S)`` one row per
    frame or ``(1, S)`` for every frame, and ``uplink`` holds the heads'
    :func:`~chsim.energy.head_uplink`, ``(H,)`` for every frame or
    ``(k, H)`` one row per frame.  Each alive, clustered member that sends
    pays ``member_tx``; each alive head that is awake and has a packet,
    its own or a member's, pays its uplink plus the per-packet cost of its
    inbound count: together, :func:`~chsim.energy.frame_consumption_chn`
    at its distance.  A head counts the members that share its cluster
    label, so the members of a dead head pay for packets no head counts.
    Returns the ``(k, S)`` charges, or ``(1, S)`` when neither the flags
    nor the uplinks differ by frame, and the int64 packets delivered, one
    per row of flags.
    """
    tx = (sends & (alive & ~net.head & (net.cluster >= 0))).astype(float)
    charges = tx * member_tx
    # sums of 0/1 products are exact in float64 (tests/test_numeric_contracts.py)
    joins = (net.cluster[:, None] == net.cluster[heads]).astype(float)
    inbound = (tx @ joins).astype(np.int64)
    # the packets each head forwards: its members' if it is awake, and its own if it sends
    packets = inbound * awake[:, heads] + sends[:, heads]
    head_cost = _frame_consumption_chn(inbound, d_size, uplink, params)
    if len(head_cost) > len(charges):  # alike flags, but uplinks that move every frame
        charges = np.repeat(charges, len(head_cost), axis=0)
    charges[:, heads] = np.where(packets > 0, head_cost, 0.0)
    return charges, packets.sum(axis=1)


def _commit(net: Network, charges: np.ndarray, k: int, n_alive: int, logged: bool,
            residual_rows: np.ndarray, consumed_rows: np.ndarray):
    """Charge a segment's ``k`` rows to ``net`` as one
    :meth:`~chsim.network.Network.debit` per row would, up to and
    including the first row after which fewer than ``n_alive`` nodes are
    alive.  ``charges`` is ``(k, S)``, or one ``(1, S)`` row that stands
    for every row; a node that is not alive must be charged 0.0.  The
    rows that kill nobody are counted in the columns of the nodes that
    die, alive before the segment and dead after it, and the row with the
    first death is capped at the residual left, as ``debit`` caps it:
    ``r - min(c, r)`` is exactly 0.0 when ``c >= r``
    (tests/test_numeric_contracts.py).  The scratch buffers hold at least
    ``k + 1`` rows.  Returns the rows that kill nobody, the rows charged
    (one more than those, when a row kills) and, when ``logged``, the
    residuals after each charged row.
    """
    path = residual_rows[: k + 1]
    path[0] = net.residual
    path[1:] = charges  # a lone row is charged k times
    # The residuals after the segment, by one reduce; after each of its rows
    # only when logged, else only in the columns of the nodes that die.  All
    # go row after row (tests/test_numeric_contracts.py).
    if logged:
        np.subtract.accumulate(path, out=path)
        last = path[-1].copy()
    else:
        last = np.subtract.reduce(path)
    clean = charged = k
    if np.count_nonzero(last > 0.0) < n_alive:
        dying = path[:, (path[0] > 0.0) & ~(last > 0.0)]
        if not logged:
            np.subtract.accumulate(dying, out=dying)
        # residuals only fall: the rows that kill nobody are those after
        # which every dying node is still alive
        clean = int(np.count_nonzero((dying[1:] > 0.0).all(axis=1)))
        charged = clean + 1
        before = path[clean] if logged else np.subtract.reduce(path[:charged])
        take = np.minimum(charges[clean if len(charges) > 1 else 0], before)
        last = before - take
        if logged:
            path[charged] = last
    if logged:
        consumed = consumed_rows[: charged + 1]
        consumed[1 : clean + 1] = charges[:clean]
    else:
        consumed = path[: charged + 1]  # its rows 1.. still hold the charges
    if charged > clean:
        consumed[charged] = take
    consumed[0] = net.consumed
    if charges.shape[1] > 1:
        net.consumed = np.add.reduce(consumed, axis=0)  # row after row
    else:  # numpy sums a lone column pairwise, not row after row
        net.consumed = np.add.accumulate(consumed)[-1]
    net.residual = last
    return clean, charged, path[1 : charged + 1] if logged else None


@dataclass(eq=False)
class Draws:
    """The traffic and headings that runs share: each run gets the ones
    made for its config's key (:meth:`of`), so runs of one seed see the
    same environment, and no run can be handed another's.  Made with
    ``keep`` false, as :func:`run` makes its own, they keep nothing for
    later runs: no packed traffic block and no mobility step."""

    traffic: Traffic | None = None
    headings: Headings | None = None
    keep: bool = True

    def of(self, cfg: SimConfig) -> tuple[Traffic, Headings]:
        """The traffic and headings of ``cfg``'s run: those held when
        ``cfg`` has their key, else fresh ones, held from then on."""
        if self.traffic is None or self.traffic.key != _traffic_key(cfg):
            self.traffic = Traffic(cfg, self.keep)
        if self.headings is None or self.headings.key != _headings_key(cfg):
            self.headings = Headings(cfg, self.keep)
        return self.traffic, self.headings


def run(cfg: SimConfig, draws: Draws | None = None) -> SimTrace:
    """Execute one seeded run to completion and return its trace.

    Deterministic: the arena seed feeds independent substreams for
    placement, mobility, scenario draws, self-election draws and the
    initial geometric split, so two runs of the same config are
    identical and runs differing only in policy see the same
    environment.  ``draws`` shares the scenario draws and the mobility
    steps with the other runs it serves, without changing a bit of the
    trace; without it the run makes its own, which keep nothing.  A run
    reads both by frame, a block at a time, and moves its nodes only when
    ``mobility_speed`` is above 0.  A config whose energy costs overflow a float raises
    ValueError before the first frame.
    """
    traffic, headings = (draws or Draws(keep=False)).of(cfg)
    arena = cfg.arena
    scen = cfg.scenario
    params, msgs = cfg.energy, cfg.msgs
    c = cfg.cluster_count
    net = Network(place_nodes(arena), cfg.initial_energy)
    s = len(net)
    bs = np.asarray(arena.bs_position, dtype=float)

    partition_rng = substream(arena.seed, PARTITION)
    leach_rng = substream(arena.seed, LEACH_DRAWS)
    headed: set[int] = set()  # LEACH: who has headed in the current epoch
    prev_head: dict[int, int] = {}  # RRCH: each cluster's last head

    fpr = scen.frames_per_round
    costs = election_costs(msgs, arena.side_a, s, c, params)
    member_tx = frame_consumption_nchn(scen.d_size, arena.side_a, c, params)
    # no head serves more than S members or sits farther out than a corner
    worst_head = _frame_consumption_chn(
        s, scen.d_size, head_uplink(scen.d_size, arena.bs_reach(), s, c, params), params
    )
    if not np.isfinite([member_tx, *costs, worst_head]).all():
        raise ValueError(f"energy costs overflow a float: {costs}, member frame {member_tx!r} J, "
                         f"head frame up to {worst_head!r} J")

    mobile = cfg.mobility_speed > 0.0
    if not mobile:  # one uplink per node, all run long
        r_bs = np.hypot(net.positions[:, 0] - bs[0], net.positions[:, 1] - bs[1])
        uplink = head_uplink(scen.d_size, r_bs, s, c, params)
        if s * s <= _KEPT_GAPS:
            # No squared distance overflows: every node stands within
            # bs_reach of the base station, whose fourth power the config
            # keeps a float, so two nodes stand within twice that.
            net.keep_gaps()
    block_rows = traffic.rows
    # a segment's residuals (and consumed energy) before and after each frame
    residual_rows = np.empty((block_rows + 1, s))
    consumed_rows = np.empty((block_rows + 1, s))

    room = min(cfg.max_frames, _FIRST_ROWS)
    log = np.empty((room, 3), dtype=np.int64)  # per frame: alive, packets_cum, chn_count
    residual_log = np.empty((room, s)) if cfg.record_residuals else None
    spans: list[tuple[int, int, int]] = []  # (frames, alive, heads) of each run of frames
    change_frames: list[int] = []
    change_ids: list[tuple[int, ...]] = []
    reelections: list[tuple[int, int, int | None]] = []
    termination = "max-frames"
    frame = 0
    died = False  # whether the last segment ended with a death or held a dead head
    # Only rows past a segment's first death overflow, and none of them is committed.
    with np.errstate(over="ignore"):
        while frame < cfg.max_frames and termination == "max-frames":
            start = frame
            k = min(cfg.max_frames - start, block_rows)
            log = _room(log, start + k, cfg.max_frames)
            if cfg.record_residuals:
                residual_log = _room(residual_log, start + k, cfg.max_frames)
            awake, events = traffic.block(start // block_rows)
            sends = awake & events
            alike = len(sends) < k  # one row of flags stands for every frame
            if mobile:
                moves = step_mobility(net.positions, arena.side_a, headings.steps(start, k, s))
            while frame < start + k:
                row = frame - start
                if frame % fpr == 0:  # an election dismisses every head, dead or alive
                    if mobile and row:
                        net.positions = moves[row - 1]  # where the last frame left them
                    round_index = frame // fpr
                    if cfg.policy == "dchne":
                        dchne_elect(net, c, costs, partition_rng)
                    elif cfg.policy == "leach":
                        leach_elect(net, c, round_index, costs, leach_rng, headed)
                    else:
                        rrch_elect(net, c, round_index, costs, prev_head, partition_rng)
                elif died:
                    dead_heads = np.nonzero(net.head & ~net.alive)[0]
                    net.head[dead_heads] = False
                    # under dchne a cluster whose head died resumes under a fresh head right away
                    for dead in dead_heads if cfg.policy == "dchne" else ():
                        label = int(net.cluster[dead])
                        winner = dchne_reelect_cluster(net, label, costs)
                        reelections.append((frame, label, winner))

                # One segment: the frames up to the next election or the end of
                # the block, charged as the network stands now, committed up to
                # and including the first frame with a death; one frame with
                # nobody alive or a head just killed by its setup charge.
                alive = net.alive
                n_alive = int(np.count_nonzero(alive))
                live_heads = np.nonzero(net.head & alive)[0]
                cut = not n_alive or len(live_heads) < np.count_nonzero(net.head)
                rows = slice(row, row + 1 if cut else min(k, row + fpr - frame % fpr))
                if not mobile:
                    head_uplinks = uplink[live_heads]
                else:  # only the live heads' paths are priced
                    where = moves[rows, live_heads]
                    r_bs = np.hypot(where[..., 0] - bs[0], where[..., 1] - bs[1])
                    head_uplinks = head_uplink(scen.d_size, r_bs, s, c, params)
                flags = slice(None) if alike else rows
                charges, delivered = _frame_charges(
                    net, alive, live_heads, awake[flags], sends[flags], head_uplinks,
                    member_tx, scen.d_size, params,
                )
                clean, charged, residuals = _commit(net, charges, rows.stop - row, n_alive,
                                                    cfg.record_residuals, residual_rows,
                                                    consumed_rows)
                stop = frame + charged
                log[frame:stop, 1] = delivered[:charged]  # summed into packets_cum at the end
                if cfg.record_residuals:
                    residual_log[frame:stop] = residuals
                died = cut or charged > clean
                # the alive and head sets hold over the frames that kill
                # nobody, and are read again for the frame of a death
                for span in (clean, charged - clean):
                    if span:
                        heads = tuple(live_heads.tolist())
                        if not change_ids or heads != change_ids[-1]:
                            change_frames.append(frame)
                            change_ids.append(heads)
                        spans.append((span, n_alive, len(heads)))
                        frame += span
                    if frame < stop:
                        alive = net.alive
                        n_alive = int(np.count_nonzero(alive))
                        live_heads = np.nonzero(net.head & alive)[0]
                if not n_alive:
                    termination = "all-dead"
                    break
            if mobile:
                net.positions = moves[-1]

    log = log[:frame]
    counts = np.array(spans, dtype=np.int64).reshape(-1, 3)
    log[:, ::2] = np.repeat(counts[:, 1:], counts[:, 0], axis=0)
    np.cumsum(log[:, 1], out=log[:, 1])
    if residual_log is not None and frame < len(residual_log):
        residual_log = residual_log[:frame].copy()  # give back the room no frame used
    return SimTrace(
        config=cfg,
        termination=termination,
        alive=log[:, 0],
        packets_cum=log[:, 1],
        chn_count=log[:, 2],
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
