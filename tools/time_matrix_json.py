"""Time ``chsim.metrics._matrix_json`` on three residual matrices.

    python3 tools/time_matrix_json.py [--parent OTHER/src] [--reps N] [--seed N]

For each case in ``CASES``, runs one simulation with residuals recorded
(6000 frames at most, simulator seed ``--seed``, default 0), then times
the writer alone on its ``(frames, S)`` residual matrix: ``_write`` of
every piece ``_matrix_json`` yields into a sink that discards them, so a
writer that yields text is timed with its encoding.  The cases are the
benchmark's trace-export run (scenario2, 190 nodes), a 10-node scenario2
run, whose few changed cells leave the writer's per-row work exposed, and
a 50-node scenario1 run moving 1 m per frame, in which nearly every cell
changes.  With ``--parent``, the ``chsim`` package under that ``src``
directory is timed in the same process on the same matrices, the two
sides alternating which goes first.  It also times ``float.__repr__``
over each matrix's run starts (each cell whose int64 bits differ from
the cell above it, and the whole first row): the calls no writer can
skip, so the distance from that floor is the writer's own overhead.
The floor is timed on one CPU; a writer that forks one child per CPU
(with at least ``_FORK_MIN_CHANGED`` changed cells a range) can finish
below it.
Prints one JSON object per case with the median and quartiles of each in
milliseconds and the bytes each side wrote.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
CASES = (
    ("trace-export", {"scenario": {"kind": "scenario2"}}),
    ("10-node scenario2", {"arena": {"node_count": 10}, "scenario": {"kind": "scenario2"}}),
    ("50-node mobile", {"arena": {"node_count": 50}, "mobility_speed": 1.0}),
)


def load(src: Path, name: str):
    """Import the ``chsim`` package under ``src`` as ``name``."""
    init = src / "chsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Sink:
    """A binary file-like that counts what it is given and keeps nothing."""

    def __init__(self):
        self.written = 0

    def write(self, data) -> None:
        self.written += len(data)


def residual_matrix(chsim, case: dict, seed: int) -> np.ndarray:
    arena = {**case.get("arena", {}), "seed": seed}
    cfg = chsim.config.config_from_dict({**case, "arena": arena, "max_frames": 6000,
                                         "record_residuals": True})
    return chsim.simulator.run(cfg).residual_log


def run_starts(matrix: np.ndarray) -> list[float]:
    bits = matrix.view(np.int64)
    new = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    return matrix[new].tolist()


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.array(samples) * 1e3, [25, 50, 75])
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}


def time_case(sides: dict, matrix: np.ndarray, reps: int) -> dict:
    starts = run_starts(matrix)
    samples = {name: [] for name in [*sides, "repr_floor"]}
    written = {}
    for rep in range(reps):
        for name in list(sides) if rep % 2 == 0 else list(sides)[::-1]:
            sink = Sink()
            start = time.perf_counter()
            sides[name]._write(sides[name]._matrix_json(matrix), sink)
            samples[name].append(time.perf_counter() - start)
            written[name] = sink.written
        start = time.perf_counter()
        list(map(float.__repr__, starts))
        samples["repr_floor"].append(time.perf_counter() - start)
    result = {"shape": list(matrix.shape), "run_starts": len(starts), "bytes": written}
    result.update({name: quartiles(v) for name, v in samples.items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="src directory of the chsim to compare against")
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    change = load(SRC, "chsim")
    sides = {"change": change.metrics}
    if args.parent:
        sides = {"parent": load(args.parent, "chsim_parent").metrics, **sides}
    for case, overrides in CASES:
        matrix = residual_matrix(change, overrides, args.seed)
        print(json.dumps({"case": case, **time_case(sides, matrix, args.reps)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
