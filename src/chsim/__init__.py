"""Deterministic simulator for cluster-head election protocols in
clustered wireless sensor networks.

The package models a first-order radio energy budget, three head
election policies (residual-energy argmax, probabilistic rotation,
round-robin), two traffic scenarios, and exports traces/summaries for
plotting and comparison.

The package root re-exports the names that the README, the demos and
the CLI use; everything else is reached through its module
(``chsim.arena``, ``chsim.election``, ``chsim.metrics``, ...).
"""

from .config import (
    POLICIES,
    ArenaConfig,
    ControlMessageSizes,
    EnergyParams,
    ScenarioConfig,
    SimConfig,
    config_from_dict,
)
from .energy import (
    frame_consumption_chn,
    setup_energy_chn,
    setup_energy_nchn,
    tx_intra,
    tx_to_bs,
)
from .metrics import compare, export, summarize
from .simulator import network_lifetime, run

__version__ = "0.1.0"

__all__ = [
    "POLICIES",
    "ArenaConfig",
    "ControlMessageSizes",
    "EnergyParams",
    "ScenarioConfig",
    "SimConfig",
    "config_from_dict",
    "frame_consumption_chn",
    "setup_energy_chn",
    "setup_energy_nchn",
    "tx_intra",
    "tx_to_bs",
    "compare",
    "export",
    "summarize",
    "network_lifetime",
    "run",
]
