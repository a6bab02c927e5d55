"""Deterministic simulator for cluster-head election protocols in
clustered wireless sensor networks.

The package models a first-order radio energy budget, three head
election policies (residual-energy argmax, probabilistic rotation,
round-robin), two traffic scenarios, and exports traces/summaries for
plotting and comparison.
"""

from .arena import (
    ArenaConfig,
    distance,
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
    geometric_partition,
    leach_elect,
    rrch_elect,
)
from .energy import (
    ControlMessageSizes,
    EnergyParams,
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
from .simulator import (
    POLICIES,
    SCENARIOS,
    ScenarioConfig,
    SimConfig,
    SimTrace,
    config_from_dict,
    config_to_dict,
    network_lifetime,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "ArenaConfig",
    "distance",
    "place_nodes",
    "step_mobility",
    "substream",
    "EmptyNetworkError",
    "LeachState",
    "RrchState",
    "dchne_elect",
    "dchne_reelect_cluster",
    "geometric_partition",
    "leach_elect",
    "rrch_elect",
    "ControlMessageSizes",
    "EnergyParams",
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
    "POLICIES",
    "SCENARIOS",
    "ScenarioConfig",
    "SimConfig",
    "SimTrace",
    "config_from_dict",
    "config_to_dict",
    "network_lifetime",
    "run",
]
