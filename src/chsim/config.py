"""What a valid run is: the config types, which check themselves when built.

Each config's ``__post_init__`` checks every field's value against the
field's declared type, then its ranges, so a config built in Python and
one read from JSON by :func:`config_from_dict` pass the same checks.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass

__all__ = [
    "POLICIES",
    "SCENARIOS",
    "ArenaConfig",
    "EnergyParams",
    "ControlMessageSizes",
    "ScenarioConfig",
    "SimConfig",
    "config_to_dict",
    "config_from_dict",
]

POLICIES = ("dchne", "leach", "rrch")
SCENARIOS = ("scenario1", "scenario2")


def _finite(v) -> bool:
    # ``abs`` compares ints exactly, so an int too large for a float is not finite either.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# What each field annotation (a string, as annotations are postponed) accepts.
_ACCEPTS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", _finite),
    "float | None": ("a finite number or null", lambda v: v is None or _finite(v)),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "tuple[float, float]": (
        "two finite numbers",
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite, v)),
    ),
}


# The bound on integer fields that enter float arithmetic (the message sizes).
_FLOAT_SIZED = f"<= {sys.float_info.max:.4g}"

# The longest base-station distance whose fourth power (the two-ray uplink term) is a float.
_MAX_BS_REACH = math.nextafter(sys.float_info.max**0.25, 0.0)


def _reject(cfg, name: str, rule: str):
    # reprlib caps what a huge value prints, so the error stays one short line
    raise ValueError(
        f"{type(cfg).__name__}.{name} must be {rule}, got {reprlib.repr(getattr(cfg, name))}"
    )


def _check_types(cfg) -> None:
    for f in fields(cfg):
        # a sub-config field takes an instance of its default's class
        expected, accepts = _ACCEPTS.get(f.type) or (f.type, lambda v: isinstance(v, type(f.default)))
        if not accepts(getattr(cfg, f.name)):
            _reject(cfg, f.name, expected)


@dataclass(frozen=True)
class ArenaConfig:
    """Deployment geometry: square side, base-station position, node count, seed.

    The default base station sits centered in x and three quarters of the
    way up the default 350 m arena, giving a mean node-to-station distance
    of about 150 m (max ~315 m at the far corners).  Sinks much farther
    out make the fourth-power uplink term so expensive that a single
    twenty-frame head stint exceeds the battery, which distorts every
    policy comparison; the default keeps head duty costly but survivable.
    """

    side_a: float = 350.0
    bs_position: tuple[float, float] = (175.0, 262.5)
    node_count: int = 190
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        object.__setattr__(self, "bs_position", tuple(self.bs_position))
        if self.side_a <= 0:
            _reject(self, "side_a", "> 0")
        if self.node_count < 1:
            _reject(self, "node_count", ">= 1")
        if self.seed < 0:
            _reject(self, "seed", ">= 0")
        if not self.bs_reach() <= _MAX_BS_REACH:
            raise ValueError(
                f"ArenaConfig.side_a/bs_position must keep every corner within "
                f"{_MAX_BS_REACH:.4g} m of the base station, got {self.bs_reach():.4g} m"
            )

    def bs_reach(self) -> float:
        """Distance from the base station to the farthest arena corner, the
        longest uplink any node can have."""
        (x, y), a = self.bs_position, self.side_a
        return math.hypot(max(abs(x), abs(a - x)), max(abs(y), abs(a - y)))


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
        _check_types(self)
        for f in fields(self):
            if getattr(self, f.name) < 0:
                _reject(self, f.name, ">= 0")


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
        _check_types(self)
        for f in fields(self):
            if getattr(self, f.name) < 0:
                _reject(self, f.name, ">= 0")
            if not _finite(getattr(self, f.name)):
                _reject(self, f.name, _FLOAT_SIZED)


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
        _check_types(self)
        if self.kind not in SCENARIOS:
            _reject(self, "kind", f"one of {SCENARIOS}")
        if self.kind == "scenario1":
            object.__setattr__(self, "event_probability", 1.0)
            object.__setattr__(self, "duty_cycle", 1.0)
        else:
            if self.event_probability is None:
                object.__setattr__(self, "event_probability", 0.3)
            if self.duty_cycle is None:
                object.__setattr__(self, "duty_cycle", 0.5)
        if not 0.0 <= self.event_probability <= 1.0:
            _reject(self, "event_probability", "in [0, 1]")
        if not 0.0 < self.duty_cycle <= 1.0:
            _reject(self, "duty_cycle", "in (0, 1]")
        if self.d_size <= 0:
            _reject(self, "d_size", "> 0")
        if not _finite(self.d_size):
            _reject(self, "d_size", _FLOAT_SIZED)
        if self.frames_per_round < 1:
            _reject(self, "frames_per_round", ">= 1")


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

    def __post_init__(self):
        _check_types(self)
        if self.policy not in POLICIES:
            _reject(self, "policy", f"one of {POLICIES}")
        if self.cluster_count < 1:
            _reject(self, "cluster_count", ">= 1")
        if self.cluster_count > self.arena.node_count:
            _reject(self, "cluster_count", f"<= arena.node_count ({self.arena.node_count})")
        if self.max_frames < 0:
            _reject(self, "max_frames", ">= 0")
        if self.initial_energy <= 0:
            _reject(self, "initial_energy", "> 0")
        if self.mobility_speed < 0:
            _reject(self, "mobility_speed", ">= 0")


def config_to_dict(cfg: SimConfig) -> dict:
    """Plain nested-dict form of a config (JSON-friendly field names)."""
    return asdict(cfg)


def _build(cls, payload):
    """``cls`` from a dict of its fields, with sub-configs built from nested dicts."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"{cls.__name__} must be given as an object of fields, not {reprlib.repr(payload)}"
        )
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {reprlib.repr(unknown)}")
    subs = {f.name: type(f.default) for f in fields(cls) if is_dataclass(f.default)}
    return cls(**{k: _build(subs[k], v) if k in subs else v for k, v in payload.items()})


def config_from_dict(data: dict) -> SimConfig:
    """Inverse of :func:`config_to_dict`; rejects unknown field names."""
    return _build(SimConfig, data)
