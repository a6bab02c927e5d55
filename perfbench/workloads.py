"""The benchmark's workloads, the seeds that make their inputs, and the
golden digests their artifacts must match.

Each workload is one ``chsim`` command line.  The benchmark seed picks
its input set: one simulator seed, from either the default sets or the
held-out ones.  Every input set has a committed SHA-256 of the artifact
it exports; an artifact that differs is a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"
RECORD_RESIDUALS = HERE / "record_residuals.json"

DEFAULT_SETS = 16
HELD_OUT_SETS = 8
HELD_OUT_BASE = 1000  # simulator seeds of held-out sets start here


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # chsim argv without seed and output
    suffix: str  # artifact file suffix

    def out_path(self) -> Path:
        return OUT_DIR / f"{self.name}{self.suffix}"

    def argv(self, sim_seed: int) -> list[str]:
        seed_args = ["--seed", str(sim_seed)] if self.args[0] == "run" else [
            "--seeds", f"{sim_seed}..{sim_seed}"]
        return [*self.args, *seed_args, "--out", str(self.out_path())]


def sim_seed(seed: int, held_out: bool = False) -> int:
    """Simulator seed of the input set that benchmark seed ``seed`` picks."""
    if held_out:
        return HELD_OUT_BASE + seed % HELD_OUT_SETS
    return seed % DEFAULT_SETS


WORKLOADS = {
    w.name: w
    for w in (
        # Every run ends all-dead after 5000-7500 frames: elections, deaths
        # and dchne re-elections are dense.
        Workload(
            "compare-saturated",
            ("compare",),
            suffix=".csv",
        ),
        # dchne loses no node in 12000 frames: quiet frames between
        # elections dominate, so the frame step is the hot path.
        Workload(
            "compare-duty-cycled",
            ("compare", "--scenario", "2"),
            suffix=".csv",
        ),
        # Small arrays, step_mobility every frame, full-curve summaries.
        # The 1500-frame horizon keeps the work per input set fixed: at 10
        # nodes the lifetime ranges from 3700 to 12000 frames by seed.
        Workload(
            "sweep-mobile",
            ("sweep", "--mobility", "1.0", "--nodes", "10..190..20", "--frames", "1500",
             "--format", "json"),
            suffix=".json",
        ),
        # One run exported as a 21 MB JSON trace with residuals: export
        # time and memory dominate.  Half the default horizon, so that a
        # run has enough invocations for a steady median.
        Workload(
            "trace-export",
            ("run", "--scenario", "2", "--frames", "6000", "--format", "json",
             "--config", str(RECORD_RESIDUALS)),
            suffix=".json",
        ),
    )
}


def load_chsim():
    """Import chsim from this checkout's ``src``; raise ImportError when it
    is missing there, rather than picking up another installation."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chsim.cli

    if Path(chsim.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"chsim was imported from {chsim.cli.__file__}, not from {SRC}")
    return chsim.cli


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def golden_digests() -> dict:
    """workload -> {"default" | "held_out": {simulator seed: sha256}}."""
    return json.loads(GOLDEN.read_text())["digests"]
