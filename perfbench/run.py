"""chsim's benchmark: host time of whole CLI invocations, and per-layer
numbers from a separate traced run.

    python3 perfbench/run.py --workload compare-saturated --seed 3 \\
        --seconds 20 --trace 0

Runs ``chsim.cli.main(argv)`` in this process, one invocation after the
other, for ``--seconds`` seconds.  Each artifact is hashed after its
invocation, outside the timer, and must match the committed golden
digest; each simulated run must keep its invariants.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced invocations and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from workloads import (HERE, OUT_DIR, ROOT, WORKLOADS, digest, golden_digests, load_chsim,
                       sim_seed)

SETUP_PROBES = 11
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
#: Seconds the reference kernel takes at the host speed that the timed
#: metrics are scaled to; close to its median on the machine recorded in
#: baseline.json.
REFERENCE_S = 0.1


def reference_kernel() -> float:
    """Seconds for a fixed mix of small-array numpy calls and Python
    containers, like chsim's frame loop but independent of chsim.

    A shared virtual machine can run the same code up to twice as fast
    at one time as at another.  The kernel runs before every timed
    invocation and set-up probe, and each timed metric is scaled by
    ``REFERENCE_S`` over the median of the kernel runs taken alongside
    it, which cancels the drift common to both.  The
    collector is off so the kernel's time does not depend on what chsim
    left on the heap.
    """
    values = np.linspace(1.0, 2.0, 190)
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(6000):
            live = np.nonzero(values > 0.5)[0]
            values[live] -= np.minimum(values[live], 1e-9)
            total = float(values.sum())
            table = {int(i): total for i in live[:20]}
            tuple(table)
        return time.perf_counter() - start
    finally:
        gc.enable()


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }


class Invoker:
    """Runs one workload's invocations and keeps the failure count."""

    def __init__(self, cli, argv: list[str], out, expected: str):
        self.cli, self.argv, self.out, self.expected = cli, argv, out, expected
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"failure: {why}", file=sys.stderr)

    def verify(self, code) -> None:
        """An invocation fails on a nonzero exit code or an artifact that
        differs from the golden digest."""
        if code != 0:
            self.fail(f"exit code {code}")
        elif not self.out.exists():
            self.fail("no artifact written")
        elif (found := digest(self.out)) != self.expected:
            self.fail(f"artifact digest {found} != golden {self.expected}")

    def invoke(self, tracer=None) -> float:
        """One in-process ``main(argv)``; returns its wall time."""
        self.out.unlink(missing_ok=True)
        self.attempted += 1
        code = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(self.argv)
            else:
                with tracer:
                    code = self.cli.main(self.argv)
        except Exception:
            traceback.print_exc()
        wall = time.perf_counter() - start
        self.verify(code)
        return wall

    def child(self, mode: str) -> dict | None:
        """A probe in a fresh interpreter; None (and a failure) if it
        does not finish cleanly."""
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "probe.py"), mode, json.dumps(self.argv)]
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} probe timed out")
            return None
        if done.returncode != 0:
            self.fail(f"{mode} probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])


def measure(inv: Invoker, seconds: float) -> dict:
    """End-to-end metrics: medians of in-process invocations, set-up time
    and peak memory from fresh interpreters.  Times are scaled to the
    reference host speed by kernel runs taken alongside them (see
    :func:`reference_kernel`).  A metric whose
    probes all failed is left out; the failures make the result
    incorrect."""
    setups, setup_refs = [], []
    for _ in range(SETUP_PROBES):
        setup_refs.append(reference_kernel())
        probe = inv.child("setup")
        if probe is not None:
            setups.append(probe["setup_s"])
    inv.out.unlink(missing_ok=True)
    once = inv.child("once")
    if once is not None:
        inv.verify(once["exit_code"])
        for problem in once["problems"]:
            inv.fail(f"invariant: {problem}")
    walls, refs = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        refs.append(reference_kernel())
        walls.append(inv.invoke())
    slowdown = statistics.median(refs) / REFERENCE_S
    wall = statistics.median(walls) / slowdown
    q1, _, q3 = statistics.quantiles(walls, n=4)
    print(f"  {len(walls)} invocations: unscaled wall median {statistics.median(walls):.4f} s, "
          f"quartiles {q1:.4f} {q3:.4f} s; host slowdown {slowdown:.4f}")
    metrics = {"wall_s": (wall, "s")}
    if once is not None:
        metrics["frames_per_s"] = (once["frames"] / wall, "1/s")
        metrics["peak_rss_mb"] = (once["peak_rss_mb"], "MiB")
    if setups:
        setup_slowdown = statistics.median(setup_refs) / REFERENCE_S
        metrics["setup_s"] = (statistics.median(setups) / setup_slowdown, "s")
    return metrics


def measure_traced(inv: Invoker, seconds: float) -> dict:
    """Per-layer metrics: alternate untraced and traced invocations; each
    traced one yields a full set, reported as medians.  Counts must
    repeat exactly between traced invocations."""
    from layers import COUNT_UNITS, layer_metrics, layer_tracer, problems_of

    plain, traced, sets = [], [], []
    absent: set[str] = set()
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPEATS or time.perf_counter() < deadline:
        plain.append(inv.invoke())
        tracer = layer_tracer()
        traced.append(inv.invoke(tracer))
        absent |= tracer.absent
        sets.append(layer_metrics(tracer.spans, tracer.absent))
        for problem in problems_of(tracer.spans):
            inv.fail(f"invariant: {problem}")
    for other in sets[1:]:
        for name, (value, unit) in sets[0].items():
            if unit in COUNT_UNITS and other.get(name, (None,))[0] != value:
                inv.fail(f"count {name} differs between traced runs")
    if absent:
        print(f"absent spans (their metrics are not reported): {sorted(absent)}",
              file=sys.stderr)
    metrics = {name: (statistics.median(s[name][0] for s in sets), unit)
               for name, (_, unit) in sets[0].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out input sets instead of the default ones")
    args = parser.parse_args(argv)

    try:
        cli = load_chsim()
    except ImportError as err:
        print(f"cannot import chsim from this checkout: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sim = sim_seed(args.seed, args.held_out)
    expected = golden_digests()[workload.name]["held_out" if args.held_out else "default"][str(sim)]
    OUT_DIR.mkdir(exist_ok=True)
    inv = Invoker(cli, workload.argv(sim), workload.out_path(), expected)

    info = machine_info()
    print(f"workload {workload.name}, simulator seed {sim}, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    if args.trace:
        metrics = measure_traced(inv, args.seconds)
    else:
        metrics = measure(inv, args.seconds)
    inv.out.unlink(missing_ok=True)
    failed = len(inv.failures)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed / max(inv.attempted, 1):14.6g} "
          f"({failed} of {inv.attempted} invocations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(inv.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
