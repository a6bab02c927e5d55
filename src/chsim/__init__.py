"""Deterministic simulator for cluster-head election protocols in
clustered wireless sensor networks.

The package models a first-order radio energy budget, three head
election policies (residual-energy argmax, probabilistic rotation,
round-robin), two traffic scenarios, and exports traces/summaries for
plotting and comparison.
"""

from .arena import distance, place_nodes, step_mobility, substream
from .config import (
    POLICIES,
    SCENARIOS,
    ArenaConfig,
    ControlMessageSizes,
    EnergyParams,
    ScenarioConfig,
    SimConfig,
    config_from_dict,
    config_to_dict,
)
from .election import (
    EmptyNetworkError,
    dchne_elect,
    dchne_reelect_cluster,
    geometric_partition,
    leach_elect,
    rrch_elect,
)
from .energy import (
    ElectionCosts,
    election_costs,
    frame_consumption_chn,
    frame_consumption_nchn,
    rx_cluster,
    sched_energy,
    setup_energy_chn,
    setup_energy_nchn,
    tx_intra,
    tx_to_bs,
)
from .metrics import (
    AggregateRow,
    ComparisonRow,
    ComparisonTable,
    GroupingError,
    RunSummary,
    compare,
    export,
    read_curve_csv,
    read_summary_json,
    summarize,
)
from .network import Network
from .simulator import SimTrace, network_lifetime, run

__version__ = "0.1.0"

__all__ = [
    "distance",
    "place_nodes",
    "step_mobility",
    "substream",
    "POLICIES",
    "SCENARIOS",
    "ArenaConfig",
    "ControlMessageSizes",
    "EnergyParams",
    "ScenarioConfig",
    "SimConfig",
    "config_from_dict",
    "config_to_dict",
    "EmptyNetworkError",
    "dchne_elect",
    "dchne_reelect_cluster",
    "geometric_partition",
    "leach_elect",
    "rrch_elect",
    "ElectionCosts",
    "election_costs",
    "frame_consumption_chn",
    "frame_consumption_nchn",
    "rx_cluster",
    "sched_energy",
    "setup_energy_chn",
    "setup_energy_nchn",
    "tx_intra",
    "tx_to_bs",
    "AggregateRow",
    "ComparisonRow",
    "ComparisonTable",
    "GroupingError",
    "RunSummary",
    "compare",
    "export",
    "read_curve_csv",
    "read_summary_json",
    "summarize",
    "Network",
    "SimTrace",
    "network_lifetime",
    "run",
]
