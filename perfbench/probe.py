"""One measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/probe.py setup '<chsim argv as JSON>'
        seconds to import chsim and plan the invocation's runs
    python3 perfbench/probe.py once '<chsim argv as JSON>'
        runs the invocation once: exit code, peak resident memory, and
        the frames and invariant violations of its simulated runs
"""

import json
import sys
import time


def setup(argv: list[str]) -> dict:
    from workloads import SRC

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import chsim  # noqa: F401
    from chsim.cli import parse_args, plan_runs

    plan_runs(parse_args(argv))
    return {"setup_s": time.perf_counter() - start}


def once(argv: list[str]) -> dict:
    import resource

    from layers import run_tracer
    from workloads import load_chsim

    cli = load_chsim()
    with run_tracer() as tracer:
        code = cli.main(argv)
    facts = [s.value for s in tracer.spans if s.name == "simulator.run"]
    return {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "frames": sum(f.frames for f in facts),
        "problems": [p for f in facts for p in f.problems],
    }


if __name__ == "__main__":
    mode, argv = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps({"setup": setup, "once": once}[mode](argv)))
