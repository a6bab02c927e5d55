"""Frame-stepped network simulation: elections, sensing, energy depletion.

A run advances frame by frame.  On every round boundary (each
``frames_per_round`` frames) the configured policy elects heads; in
between, awake members with an event transmit one data packet to their
head, which receives, aggregates, schedules and forwards one packet to
the base station.  All consumption is debited against node batteries;
nodes die when they hit zero and the trace records the alive count,
cumulative deliveries and head set of every frame.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .arena import (
    LEACH_DRAWS,
    MOBILITY,
    PARTITION,
    SCENARIO,
    ArenaConfig,
    place_nodes,
    step_mobility,
    substream,
)
from .election import (
    EmptyNetworkError,
    LeachState,
    RrchState,
    dchne_elect,
    dchne_reelect_cluster,
    leach_elect,
    rrch_elect,
)
from .energy import ControlMessageSizes, EnergyParams, frame_consumption_chn, frame_consumption_nchn
from .network import Network

__all__ = [
    "POLICIES",
    "SCENARIOS",
    "ScenarioConfig",
    "SimConfig",
    "SimTrace",
    "run",
    "network_lifetime",
    "config_to_dict",
    "config_from_dict",
]

POLICIES = ("dchne", "leach", "rrch")
SCENARIOS = ("scenario1", "scenario2")


@dataclass(frozen=True)
class ScenarioConfig:
    """Traffic model of a run.

    ``scenario1`` is saturated sensing: every node awake, an event every
    frame.  ``scenario2`` draws, per node per frame, awake state with
    probability ``duty_cycle`` and an event with probability
    ``event_probability`` (defaulting to 0.5 and 0.3 when unset).
    """

    kind: str = "scenario1"
    event_probability: float | None = None
    duty_cycle: float | None = None
    d_size: int = 4000
    frames_per_round: int = 20

    def __post_init__(self):
        if self.kind not in SCENARIOS:
            raise ValueError(f"scenario kind must be one of {SCENARIOS}, got {self.kind!r}")
        if self.kind == "scenario1":
            object.__setattr__(self, "event_probability", 1.0)
            object.__setattr__(self, "duty_cycle", 1.0)
        else:
            if self.event_probability is None:
                object.__setattr__(self, "event_probability", 0.3)
            if self.duty_cycle is None:
                object.__setattr__(self, "duty_cycle", 0.5)
        if not 0.0 <= self.event_probability <= 1.0:
            raise ValueError(f"event probability must be in [0, 1], got {self.event_probability}")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(f"duty cycle must be in (0, 1], got {self.duty_cycle}")
        if self.d_size <= 0:
            raise ValueError(f"data packet size must be positive, got {self.d_size}")
        if self.frames_per_round < 1:
            raise ValueError(f"frames per round must be >= 1, got {self.frames_per_round}")


@dataclass(frozen=True)
class SimConfig:
    """Complete, self-contained description of one run."""

    arena: ArenaConfig = ArenaConfig()
    energy: EnergyParams = EnergyParams()
    msgs: ControlMessageSizes = ControlMessageSizes()
    scenario: ScenarioConfig = ScenarioConfig()
    policy: str = "dchne"
    cluster_count: int = 10
    max_frames: int = 12000
    initial_energy: float = 3.5
    mobility_speed: float = 0.0
    record_residuals: bool = False

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.cluster_count < 1:
            raise ValueError(f"cluster count must be >= 1, got {self.cluster_count}")
        if self.cluster_count > self.arena.node_count:
            raise ValueError(
                f"cluster count {self.cluster_count} exceeds node count {self.arena.node_count}"
            )
        if self.max_frames < 0:
            raise ValueError(f"max frames must be >= 0, got {self.max_frames}")
        if not (math.isfinite(self.initial_energy) and self.initial_energy > 0):
            raise ValueError(f"initial energy must be positive, got {self.initial_energy}")
        if not (math.isfinite(self.mobility_speed) and self.mobility_speed >= 0):
            raise ValueError(f"mobility speed must be >= 0, got {self.mobility_speed}")


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
    environment.
    """
    cfg.validate()
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
    leach_state = LeachState()
    rrch_state = RrchState()

    member_tx = frame_consumption_nchn(scen.d_size, 1, arena.side_a, c, params)

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
                    dchne_elect(net, c, params, msgs, arena.side_a, partition_rng)
                elif cfg.policy == "leach":
                    leach_elect(net, c, round_index, params, msgs, arena.side_a, leach_rng, leach_state)
                else:
                    rrch_elect(net, c, round_index, params, msgs, arena.side_a, rrch_state, partition_rng)
            except EmptyNetworkError:
                pass
        elif cfg.policy == "dchne":
            # a cluster whose head died resumes under a fresh head right away
            for dead in dead_heads:
                label = int(net.cluster[dead])
                winner = dchne_reelect_cluster(net, label, c, params, msgs, arena.side_a)
                reelections.append((frame, label, winner))

        if cfg.mobility_speed > 0.0:
            net.positions = step_mobility(
                net.positions, arena.side_a, cfg.mobility_speed, 1.0, mobility_rng
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
        residual_log=residual_log,
    )


def network_lifetime(trace: SimTrace, threshold: int):
    """First frame at which the alive count drops below ``threshold``,
    or ``None`` if it never does."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    below = np.nonzero(trace.alive < threshold)[0]
    return int(below[0]) if len(below) else None


def config_to_dict(cfg: SimConfig) -> dict:
    """Plain nested-dict form of a config (JSON-friendly field names)."""
    return asdict(cfg)


_SUBCONFIGS = {
    "arena": ArenaConfig,
    "energy": EnergyParams,
    "msgs": ControlMessageSizes,
    "scenario": ScenarioConfig,
}


# Payload values each field annotation (a string, as the config modules
# postpone annotations) accepts; other fields (sub-configs, ``bs_position``)
# are checked where they are built.  ``abs`` compares ints exactly, so an
# int too large for a float is not finite either.
_ACCEPTS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    "float | None": ("a finite number or null", lambda v: v is None or _ACCEPTS["float"][1](v)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
}


def _build(cls, payload: dict):
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
    for name, value in payload.items():
        expected, accepts = _ACCEPTS.get(types[name], (None, None))
        if accepts is not None and not accepts(value):
            raise ValueError(f"{cls.__name__}.{name} must be {expected}, got {value!r}")
    return cls(**payload)


def config_from_dict(data: dict) -> SimConfig:
    """Inverse of :func:`config_to_dict`; rejects unknown field names."""
    remainder = dict(data)
    kwargs = {}
    for key, cls in _SUBCONFIGS.items():
        if key in remainder:
            payload = remainder.pop(key)
            if not isinstance(payload, dict):
                raise ValueError(f"{key} must be an object of {cls.__name__} fields, not {payload}")
            kwargs[key] = _build(cls, payload)
    cfg = _build(SimConfig, {**kwargs, **remainder})
    cfg.validate()
    return cfg
