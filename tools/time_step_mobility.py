"""Time ``chsim.arena.step_mobility`` on the blocks that ``run()`` draws.

    python3 tools/time_step_mobility.py [--parent OTHER/src] [--reps N] [--costs]

For each network size S in 10, 50 and 190 and each speed in 1, 5, 20,
100 and 800 m per frame (350 m arena), it times a block of as many
frames as ``run()`` puts in one block at that size, with fresh uniform
positions and a fresh seeded generator per block: its steps drawn by
``_draw_steps``, then ``step_mobility`` on them, what ``run()`` pays for
a block whose steps are drawn.  With ``--parent``, the
``chsim`` package under that ``src`` directory is timed in the same
process, the two sides alternating which goes first; its ``arena`` must
have the same ``_draw_steps`` and ``step_mobility(positions, side_a,
steps)``.  Prints one JSON object: per case, the minimum, median and
quartiles in microseconds.

``--costs`` instead times the two ways a block redoes the coordinates
that reach a wall: ``_walk`` per walked cell and ``_fold_rows`` per row,
the costs from which ``_WALK_CELLS_PER_ROW`` is set, each as a median
and a minimum.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SIZES = (10, 50, 190)
SPEEDS = (1.0, 5.0, 20.0, 100.0, 800.0)
SIDE = 350.0


def load(src: Path, name: str):
    """Import the ``chsim`` package under ``src`` as ``name``."""
    init = src / "chsim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{part}")
                 for part in ("arena", "simulator", "config"))


def block_rows(simulator, config, s: int) -> int:
    """Frames per block of ``run()`` at ``s`` nodes in the default
    profile, as its ``Traffic`` cuts them."""
    return simulator.Traffic(config.SimConfig(arena=config.ArenaConfig(node_count=s))).rows


def spread(samples: list[float]) -> dict:
    """Minimum, median and quartiles in microseconds.  The sides
    alternate within one process, so each side's minimum is an
    interleaved minimum, which moves less than the median between runs
    on a shared machine."""
    low, q1, median, q3 = np.percentile(np.array(samples) * 1e6, [0, 25, 50, 75])
    return {"min_us": round(low, 1), "median_us": round(median, 1), "q1_us": round(q1, 1),
            "q3_us": round(q3, 1)}


def time_blocks(sides: dict, rows_of, reps: int) -> list[dict]:
    cases = []
    for s in SIZES:
        frames = rows_of(s)
        for speed in SPEEDS:
            samples = {name: [] for name in sides}
            for rep in range(reps):
                pos = np.random.default_rng(rep).uniform(0.0, SIDE, (s, 2))
                order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
                for name in order:
                    arena = sides[name]
                    rng = np.random.default_rng(10_000 + rep)
                    start = time.perf_counter()
                    steps = np.empty((frames, s, 2))
                    arena._draw_steps(rng, speed, steps)
                    arena.step_mobility(pos, SIDE, steps)
                    samples[name].append(time.perf_counter() - start)
            case = {"nodes": s, "frames": frames, "speed_m_per_frame": speed}
            case.update({name: spread(v) for name, v in samples.items()})
            cases.append(case)
            print(json.dumps(case), file=sys.stderr)
    return cases


def hot_block(arena, s: int, frames: int, speed: float, seed: int):
    """The accumulated block, steps, hot columns and first steps out that
    ``step_mobility`` hands to ``_walk`` or ``_fold_rows``."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, SIDE, (s, 2))
    steps = np.empty((frames, s, 2))
    arena._draw_steps(rng, speed, steps)
    steps = steps.reshape(frames, -1)
    coords = np.concatenate([pos.reshape(1, -1), steps])
    np.add.accumulate(coords, axis=0, out=coords)
    outside = (coords[1:] < 0.0) | (coords[1:] > SIDE)
    hot = np.flatnonzero(outside.any(axis=0))
    return coords, steps, hot, outside[:, hot].argmax(axis=0)


def time_costs(arena, rows_of, reps: int) -> list[dict]:
    cases = []
    for s in SIZES:
        frames = rows_of(s)
        for speed in (1.0, 20.0, 800.0):
            walk, fold, walked = [], [], []
            for rep in range(reps):
                coords, steps, hot, first = hot_block(arena, s, frames, speed, rep)
                cells = int((frames - first).sum())
                if not cells:
                    continue
                walked.append(cells / frames)
                work = coords.copy()
                start = time.perf_counter()
                arena._walk(work, steps, hot, first, SIDE)
                walk.append((time.perf_counter() - start) / cells)
                work = coords.copy()
                start = time.perf_counter()
                arena._fold_rows(work, steps, 0, SIDE)
                fold.append((time.perf_counter() - start) / frames)
            case = {"nodes": s, "frames": frames, "speed_m_per_frame": speed,
                    "walked_cells_per_row": round(float(np.median(walked)), 1),
                    "walk_ns_per_cell": round(float(np.median(walk)) * 1e9, 1),
                    "walk_ns_per_cell_min": round(min(walk, default=float("nan")) * 1e9, 1),
                    "fold_rows_us_per_row": round(float(np.median(fold)) * 1e6, 2),
                    "fold_rows_us_per_row_min": round(min(fold, default=float("nan")) * 1e6, 2)}
            cases.append(case)
            print(json.dumps(case), file=sys.stderr)
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="src directory of the chsim to compare against")
    parser.add_argument("--reps", type=int, default=40)
    parser.add_argument("--costs", action="store_true")
    args = parser.parse_args(argv)
    arena, simulator, config = load(SRC, "chsim")
    rows_of = partial(block_rows, simulator, config)
    if args.costs:
        result = {"costs": time_costs(arena, rows_of, args.reps)}
    else:
        sides = {"change": arena}
        if args.parent:
            sides = {"parent": load(args.parent, "chsim_parent")[0], **sides}
        result = {"cases": time_blocks(sides, rows_of, args.reps)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
