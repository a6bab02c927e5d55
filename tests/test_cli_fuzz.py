"""CLI argv, fuzzed: every invocation of ``run``, ``compare`` or ``sweep``
ends in exactly one of three ways, and never in a traceback:

- exit 0, nothing on stderr, and an export with no non-finite number;
- exit 1 and one ``usage error:`` line;
- exit 2 and one ``error:`` line.

``--nodes``, ``--frames`` and ``--clusters`` are always given, and their
valid values and the seed ranges are small, so that no example allocates
more than a few MiB or runs for more than a fraction of a second.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from chsim.cli import main  # noqa: E402

# Hypothesis caches facts about the code under test; keep them out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir(), "chsim-hypothesis"))

# Texts that every numeric flag refuses: not a number, not finite, not an
# integer, not a range, or below every flag's lower bound.
MALFORMED = st.sampled_from(["nan", "inf", "-inf", "x", "", "1e3", "2.5", "0x10", "1..", "..2",
                             "1...2", "-1", f"-{10**30}"])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(lo, hi, *edges):
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(edges))


def ranges(lo, hi, longest, steps=st.integers(1, 3)):
    """``A..B[..STEP]`` texts with ``A`` in ``lo..hi``, ``B - A`` below
    ``longest`` and the step, if any, drawn from ``steps``."""
    def text(a, span, step):
        return f"{a}..{a + span}" if step is None else f"{a}..{a + span}..{step}"

    return st.builds(text, st.integers(lo, hi), st.integers(0, longest - 1),
                     st.one_of(st.none(), steps))


# Each flag's valid values, edge cases among them, then values that must
# be refused: out of range, non-finite, not a number or of the wrong shape.
FLAGS = {
    "--nodes": (st.one_of(ints(1, 12), ranges(1, 10, 3)),
                st.one_of(MALFORMED, ranges(-3, 0, 3), st.just("9..4"), st.just("4..8..0"))),
    "--clusters": (ints(1, 4), st.one_of(MALFORMED, st.sampled_from(["0", "500", str(10**30)]))),
    "--frames": (ints(0, 60), MALFORMED),
    "--policy": (st.sampled_from(["dchne", "leach", "rrch"]), st.sampled_from(["LEACH", "x"])),
    "--scenario": (st.sampled_from(["1", "2", "scenario1", "scenario2"]),
                   st.sampled_from(["3", "0", "scenario3"])),
    "--seed": (st.one_of(ints(0, 9), st.just(str(2**64))), MALFORMED),
    "--seeds": (st.one_of(ints(0, 9), ranges(0, 9, 3)),
                st.one_of(MALFORMED, ranges(-3, -1, 3), st.just("5..2"),
                          ranges(0, 9, 3, steps=st.integers(-1, 0)))),
    "--duty-cycle": (floats(0.0, 1.0, "-0.0", "5e-324", "1"),
                     st.one_of(MALFORMED, st.sampled_from(["1.5", "-0.1", "1e300"]))),
    "--event-prob": (floats(0.0, 1.0, "-0.0", "5e-324", "1"),
                     st.one_of(MALFORMED, st.sampled_from(["1.5", "-0.1", "1e300"]))),
    "--round-frames": (st.one_of(ints(1, 30), st.just(str(10**30))), MALFORMED),
    "--mobility": (floats(0.0, 500.0, "1e300", "-0.0", "5e-324"),
                   st.one_of(MALFORMED, st.sampled_from(["-0.5", "-1e300"]))),
    "--format": (st.sampled_from(["csv", "json"]), st.sampled_from(["xml", "CSV"])),
}
SIZES = ("--nodes", "--clusters", "--frames")


@st.composite
def invocations(draw):
    """An argv with every size flag and up to five others, each with a
    valid value, but for up to two flags given a value to refuse."""
    flags = [*SIZES, *draw(st.lists(st.sampled_from(sorted(set(FLAGS) - set(SIZES))),
                                    unique=True, max_size=5))]
    refused = draw(st.lists(st.sampled_from(flags), unique=True, max_size=2))
    argv = [draw(st.sampled_from(["run", "compare", "sweep"]))]
    for flag in flags:
        good, bad = FLAGS[flag]
        argv += [flag, draw(bad if flag in refused else good)]
    return argv


def _reject_constant(token):
    raise ValueError(f"export holds {token}")


def assert_finite_export(data: bytes, fmt: str):
    if fmt == "json":
        json.loads(data, parse_constant=_reject_constant)
        return
    for row in csv.reader(io.StringIO(data.decode())):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # a name, or an empty cell for "never"
            assert math.isfinite(value), row


@settings(max_examples=300, deadline=None, database=None)
@given(invocations())
@example(["run", "--nodes", "5", "--clusters", "2", "--frames", "20", "--seed", "1",
          "--seeds", "1..2"])
@example(["compare", "--nodes", "6", "--clusters", "2", "--frames", "30", "--seeds", "3..1"])
@example(["sweep", "--nodes", "4..8..2", "--clusters", "1", "--frames", "10", "--seeds", "0..2",
          "--scenario", "2", "--mobility", "inf"])
@example(["compare", "--nodes", "7", "--clusters", "2", "--frames", "40", "--seeds", "0..2",
          "--scenario", "2", "--duty-cycle", "nan", "--format", "json"])
@example(["run", "--nodes", "5", "--clusters", "2", "--frames", "20", "--round-frames", "0"])
@example(["run", "--nodes", "5", "--clusters", "2", "--frames", "20", "--seeds", f"0..{10**30}"])
def test_any_argv_exits_cleanly(argv):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out)])
        text = err.getvalue()
        if code == 0:
            assert text == ""
            assert_finite_export(out.read_bytes(), fmt)
        else:
            assert code in (1, 2)
            assert text.startswith("usage error: " if code == 1 else "error: ")
            assert text.count("\n") == 1 and text.endswith("\n")
