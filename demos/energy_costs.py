"""Anatomy of the radio energy budget.

Walks through the per-message costs that drive every simulation result:
what a member pays to reach its head, what a head pays to serve a frame,
and how the fourth-power uplink turns base-station distance into the
dominant design constraint.  Run with ``python3 demos/energy_costs.py``.
"""

import numpy as np

from chsim import (
    ControlMessageSizes,
    EnergyParams,
    frame_consumption_chn,
    setup_energy_chn,
    setup_energy_nchn,
    tx_intra,
    tx_to_bs,
)
from chsim.energy import sched_energy

AREA = 350.0
NODES = 190
CLUSTERS = 10
D_SIZE = 4000  # bits per data packet
BATTERY = 3.5  # joules


def main():
    p = EnergyParams()
    msgs = ControlMessageSizes()

    print("=== Per-message building blocks (defaults) ===")
    member_tx = tx_intra(D_SIZE, AREA, CLUSTERS, p)
    print(f"member -> head data packet : {member_tx:.3e} J")
    print(f"head setup (adv/syn/join)  : "
          f"{setup_energy_chn(msgs, AREA, NODES, CLUSTERS, p):.3e} J")
    print(f"member setup (handshake)   : "
          f"{setup_energy_nchn(msgs, AREA, CLUSTERS, p):.3e} J")

    print()
    print("=== Uplink cost vs base-station distance (fourth power) ===")
    print(f"{'r [m]':>6} {'uplink [J]':>12} {'vs member tx':>13} {'stints/battery':>15}")
    members = NODES // CLUSTERS - 1
    for r in (50, 100, 150, 200, 250, 350, 500):
        uplink = tx_to_bs(D_SIZE, r, p)
        head_frame = frame_consumption_chn(members, D_SIZE, r, NODES, CLUSTERS, p)
        stint = 20 * head_frame  # twenty-frame round of head duty
        print(f"{r:>6} {uplink:>12.3e} {uplink / member_tx:>12.1f}x "
              f"{BATTERY / stint:>15.1f}")

    print()
    print("A head stint must cost a small fraction of the battery for head")
    print("rotation to matter: if one stint drains a full charge, every")
    print("policy's heads die in office and the comparison collapses; if it")
    print("costs nothing, election policy is irrelevant.  The default sink")
    print("placement (mean distance ~150 m) keeps roughly 20 stints per")
    print("battery, so who gets elected decides who survives.")

    print()
    print("=== Where a serving cluster's joules go, one frame ===")
    r_typical = 150.0
    rx = members * D_SIZE * p.e_radio
    agg = members * D_SIZE * p.e_agg
    sched = sched_energy(D_SIZE, NODES, CLUSTERS, p)
    uplink = tx_to_bs(D_SIZE, r_typical, p)
    rows = [
        ("member transmissions", members * member_tx),
        ("head receive", rx),
        ("head aggregation", agg),
        ("head scheduling", sched),
        ("head uplink @150 m", uplink),
    ]
    total = sum(v for _, v in rows)
    for name, value in rows:
        print(f"{name:<22}: {value:.3e} J  ({100 * value / total:4.1f}%)")
    print(f"{'cluster total':<22}: {total:.3e} J")


if __name__ == "__main__":
    main()
