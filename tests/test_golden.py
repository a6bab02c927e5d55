"""Golden digests: the four benchmark workloads still export the bytes
recorded in ``perfbench/golden.json``: simulator seed 0, and held-out
seed 1000 for the death-dense scenario1 compare, the mobile sweep and
the trace with residuals."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from chsim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["digests"]


@pytest.mark.parametrize("name, sets, seed", [
    *(pytest.param(name, "default", 0, id=name) for name in
      ("compare-saturated", "compare-duty-cycled", "sweep-mobile", "trace-export")),
    *(pytest.param(name, "held_out", 1000, id=f"{name}-held-out-1000") for name in
      ("compare-saturated", "sweep-mobile", "trace-export")),
])
def test_artifact_matches_golden_digest(name, sets, seed, tmp_path):
    workload = WORKLOADS[name]
    seed_args = ["--seed", str(seed)] if workload.args[0] == "run" else ["--seeds", f"{seed}..{seed}"]
    out = tmp_path / f"{name}{workload.suffix}"
    assert main([*workload.args, *seed_args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name][sets][str(seed)]
