"""Regenerate ``golden.json``: the SHA-256 of every workload's artifact
for each default and held-out input set, from the code in ``src``.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter exported bytes, and say so
in that change.
"""

import json
import sys

from workloads import (DEFAULT_SETS, GOLDEN, HELD_OUT_SETS, OUT_DIR, WORKLOADS, digest,
                       load_chsim, sim_seed)


def main() -> int:
    cli = load_chsim()
    OUT_DIR.mkdir(exist_ok=True)
    digests = {}
    for workload in WORKLOADS.values():
        sets = {"default": (DEFAULT_SETS, False), "held_out": (HELD_OUT_SETS, True)}
        digests[workload.name] = {}
        for set_name, (count, held_out) in sets.items():
            table = digests[workload.name][set_name] = {}
            for seed in range(count):
                sim = sim_seed(seed, held_out)
                if cli.main(workload.argv(sim)) != 0:
                    print(f"{workload.name} seed {sim}: chsim failed", file=sys.stderr)
                    return 1
                table[str(sim)] = digest(workload.out_path())
                print(workload.name, set_name, sim, table[str(sim)], flush=True)
        workload.out_path().unlink(missing_ok=True)
    GOLDEN.write_text(json.dumps({"digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
