"""Command-line driver: single runs, policy comparison matrices, node sweeps.

Exit codes: 0 success, 1 usage error, 2 runtime or I/O error.  All
stochastic streams derive from the per-run seed, so repeating an
invocation reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from pathlib import Path

from .config import POLICIES, SimConfig, config_from_dict
from .metrics import compare, export, outcome, summarize
from .simulator import Headings, Traffic, run

__all__ = ["parse_args", "plan_runs", "execute", "main"]

_SCENARIO_NAMES = {
    "1": "scenario1",
    "2": "scenario2",
    "scenario1": "scenario1",
    "scenario2": "scenario2",
}
DEFAULT_SWEEP_NODES = "10..200..10"


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_range(text: str) -> range:
    """Parse ``"a"``, ``"a..b"`` or ``"a..b..step"`` into an inclusive
    range of integers, which holds no list of them."""
    parts = text.split("..")
    try:
        if len(parts) <= 2:
            lo, hi = int(parts[0]), int(parts[-1])
            step = 1
        elif len(parts) == 3:
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2])
        else:
            raise ValueError
        if step < 1 or hi < lo:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N, A..B or A..B..STEP with A <= B and STEP >= 1, got {text!r}"
        ) from None
    return range(lo, hi + 1, step)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="chsim",
        description="Simulate cluster-head election policies in a wireless sensor network.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    specs = {
        "run": "run one simulation and export its trace",
        "compare": "run every policy on matched environments and export the delta table",
        "sweep": "repeat runs across a range of node counts and export the summaries",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--policy", choices=POLICIES, help="election policy (default dchne)")
        p.add_argument("--scenario", choices=sorted(_SCENARIO_NAMES),
                       help="traffic model: 1 = saturated, 2 = duty-cycled random events")
        p.add_argument("--nodes", type=_int_range, metavar="N|A..B[..STEP]",
                       help="node count (sweep accepts a range)")
        p.add_argument("--clusters", type=int, help="cluster count")
        p.add_argument("--frames", type=int, help="maximum frames to simulate")
        p.add_argument("--seed", type=int, help="single seed")
        p.add_argument("--seeds", type=_int_range, metavar="A..B[..STEP]",
                       help="seed range for multi-run subcommands")
        p.add_argument("--config", dest="config_path", metavar="FILE",
                       help="JSON config file; explicit flags override its values")
        p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="export format (default csv)")
        p.add_argument("--duty-cycle", type=float, dest="duty_cycle",
                       help="fraction of frames a node is awake (scenario 2)")
        p.add_argument("--event-prob", type=float, dest="event_prob",
                       help="per-frame event probability (scenario 2)")
        p.add_argument("--round-frames", type=int, dest="round_frames",
                       help="frames between elections")
        p.add_argument("--mobility", type=float, help="node speed in m/frame (default 0)")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv`` into an invocation, raising :class:`UsageError`
    (never exiting) on bad input; ``--help`` still exits 0.  A single
    ``--seed N`` is also given as ``seeds == (N,)``.  Ranges are checked
    by slicing, which never counts them: ``len`` of a range longer than
    ``sys.maxsize`` raises OverflowError."""
    ns = _build_parser().parse_args(argv)
    if ns.seed is not None and ns.seeds is not None:
        raise UsageError("--seed and --seeds conflict; give one of them")
    if ns.subcommand == "run" and ns.seeds is not None and ns.seeds[1:]:
        raise UsageError("run simulates a single seed; use compare or sweep for ranges")
    if ns.subcommand == "compare" and ns.policy is not None:
        raise UsageError("compare always runs every policy; --policy conflicts with it")
    if ns.nodes is not None and ns.subcommand != "sweep" and ns.nodes[1:]:
        raise UsageError(f"{ns.subcommand} takes a single --nodes value; ranges are for sweep")
    if ns.seeds is None and ns.seed is not None:
        ns.seeds = (ns.seed,)
    return ns


def _config_for(
    inv: argparse.Namespace, base: dict, seed: int, policy=None, nodes=None
) -> SimConfig:
    """Materialize one run's config: the config file's values ``base``
    first, flags on top."""
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}

    def put(section, key, value):
        if value is not None:
            target = data.setdefault(section, {}) if section else data
            if isinstance(target, dict):  # config_from_dict rejects the rest
                target[key] = value

    put("arena", "node_count", nodes if nodes is not None else
        (inv.nodes[0] if inv.nodes else None))
    put("arena", "seed", seed)
    put("scenario", "kind", _SCENARIO_NAMES[inv.scenario] if inv.scenario else None)
    put("scenario", "duty_cycle", inv.duty_cycle)
    put("scenario", "event_probability", inv.event_prob)
    put("scenario", "frames_per_round", inv.round_frames)
    put(None, "policy", policy or inv.policy)
    put(None, "cluster_count", inv.clusters)
    put(None, "max_frames", inv.frames)
    put(None, "mobility_speed", inv.mobility)
    return config_from_dict(data)


def plan_runs(inv: argparse.Namespace) -> Iterator[SimConfig]:
    """Yield the runs an invocation implies, in a deterministic order:
    compare's by seed, then policy, so that the runs sharing a seed's
    traffic come together; sweep's by node count, then seed.  Nothing is
    read or built before the first config is asked for, and each config
    is built and validated only when the plan reaches it, so a plan over
    a huge seed range costs nothing up front.  Seeds and node counts
    ascend and only small values are invalid, so an invalid plan fails
    on its first config."""
    base = json.loads(Path(inv.config_path).read_text()) if inv.config_path else {}
    if not isinstance(base, dict):
        raise ValueError(f"config file {inv.config_path} must hold a JSON object")
    seeds = inv.seeds if inv.seeds is not None else (None,)
    if inv.subcommand == "run":
        yield _config_for(inv, base, seed=seeds[0])
    elif inv.subcommand == "compare":
        for seed in seeds:
            for policy in POLICIES:
                yield _config_for(inv, base, seed=seed, policy=policy)
    else:
        node_counts = inv.nodes if inv.nodes is not None else _int_range(DEFAULT_SWEEP_NODES)
        for n in node_counts:
            for seed in seeds:
                yield _config_for(inv, base, seed=seed, nodes=n)


def _each_run(configs, reduce):
    """``reduce`` of each planned run's trace, in plan order, the trace
    dropped before the next run.  Runs next to each other in the plan
    share one :class:`Traffic` and one :class:`Headings` while they fit
    them: compare's runs of a seed share both, a sweep's runs of a seed
    (and speed) their headings.  Each is dropped when a run it does not
    fit begins."""
    traffic = headings = None
    for cfg in configs:
        if traffic is None or not traffic.fits(cfg):
            traffic = Traffic(cfg)
        if headings is None or not headings.fits(cfg):
            headings = Headings(cfg)
        yield reduce(run(cfg, traffic, headings))


def execute(inv: argparse.Namespace) -> int:
    """Run the planned simulations and export the artifact for the
    subcommand: a trace (run), a comparison table (compare), or the
    summary list (sweep).

    compare and sweep take their runs from generators, one at a time:
    compare keeps two numbers of each, and sweep's export keeps only
    each summary's exported bytes.  Nothing is written until every run
    has succeeded, so a run that fails leaves no output."""
    configs = plan_runs(inv)
    if inv.subcommand == "run":
        artifact = run(next(configs))
    elif inv.subcommand == "compare":
        artifact = compare(_each_run(configs, outcome))
    else:
        artifact = _each_run(configs, summarize)
    destination = inv.out if inv.out is not None else sys.stdout.buffer
    export(artifact, inv.format, destination)
    return 0


def main(argv=None) -> int:
    try:
        return execute(parse_args(argv))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # argparse --help
        return 0 if (err.code or 0) == 0 else 1
    except (OSError, ValueError, MemoryError) as err:  # MemoryError: a network too large
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
