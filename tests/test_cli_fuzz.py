"""CLI argv and config files, fuzzed: every invocation of ``run``,
``compare`` or ``sweep`` ends in exactly one of three ways, and never in
a traceback:

- exit 0, nothing on stderr, and an export with no non-finite number;
- exit 1 and one ``usage error:`` line;
- exit 2 and one ``error:`` line.

``--nodes``, ``--frames`` and ``--clusters`` are always given, or a
config file always holds ``node_count``, ``cluster_count`` and
``max_frames``.  Their valid values and the seed ranges are small, so
that no example allocates more than a few MiB or runs for more than a
fraction of a second.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from chsim.cli import main  # noqa: E402
from chsim.config import POLICIES, SimConfig, config_to_dict  # noqa: E402


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
            if cell.lstrip("-").isdigit():
                continue  # an int, exact however long, such as a seed past 10**400
            try:
                value = float(cell)
            except ValueError:
                continue  # a name, or an empty cell for "never"
            assert math.isfinite(value), row


def assert_exits_cleanly(argv, config=None):
    """Run ``argv``, with ``config`` written as a JSON file for
    ``--config`` unless it is None, and check that it ends in one of the
    three ways."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        if config is not None:
            path = Path(tmp, "config.json")
            path.write_text(json.dumps(config))  # NaN and Infinity as JSON literals
            argv = [*argv, "--config", str(path)]
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


@settings(max_examples=300)
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
    assert_exits_cleanly(argv)


DEFAULTS = config_to_dict(SimConfig())
# The fields whose defaults would make a run large, each always in the file
SIZES_IN_FILE = {("arena", "node_count"): st.integers(1, 12),
                 ("cluster_count",): st.integers(1, 4),
                 ("max_frames",): st.integers(0, 60)}
# Values of the wrong type, not finite, past every bound, or small ints and
# short lists of floats, which a field may or may not take
WRONG = st.one_of(
    st.sampled_from([None, True, False, "", "3", [], [1.0, 2.0], {}, {"x": 1},
                     float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 10**401, -10**401,
                     -0.0]),
    st.integers(-5, 50),
    st.floats(),
    st.lists(st.floats(), max_size=3),  # nan and +-inf included
    st.text(max_size=5),
)
ONE_IN_FIVE = st.sampled_from([False, False, False, False, True])


def fitting(default):
    """Values of a field's own type around its default, mostly valid."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(0, max(2 * default, 9))
    if isinstance(default, float):
        return st.floats(0.0, 2 * default if default > 0 else 1.0)
    if isinstance(default, list):
        return st.lists(fitting(default[0]), min_size=2, max_size=2)
    return st.sampled_from(["scenario1", "scenario2", *POLICIES])


def _fields(tree, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _fields(value, prefix + (key,))
        else:
            yield prefix + (key,), value


@st.composite
def config_files(draw):
    """A config: the defaults, with the size fields small, up to four
    fields drawn near their defaults, up to two given a wrong value, a
    section that may be replaced by a wrong value, and unknown keys; or,
    now and then, a top level that is not an object."""
    if draw(ONE_IN_FIVE) and draw(ONE_IN_FIVE):
        return draw(WRONG.filter(lambda v: not isinstance(v, dict)))
    config = copy.deepcopy(DEFAULTS)
    fields = dict(_fields(DEFAULTS))
    drawn = {path: draw(SIZES_IN_FILE[path]) for path in SIZES_IN_FILE}
    others = sorted(set(fields) - set(SIZES_IN_FILE))
    for path in draw(st.lists(st.sampled_from(others), unique=True, max_size=4)):
        drawn[path] = draw(fitting(fields[path]))
    for path in draw(st.lists(st.sampled_from(sorted(fields)), unique=True, max_size=2)):
        if draw(st.booleans()):
            drawn[path] = draw(WRONG)
    for path, value in drawn.items():
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
    sections = sorted(k for k, v in DEFAULTS.items() if isinstance(v, dict))
    if draw(ONE_IN_FIVE):
        config[draw(st.sampled_from(sections))] = draw(WRONG)
    if draw(ONE_IN_FIVE):
        target = draw(st.sampled_from([config, *(config[k] for k in sections)]))
        if isinstance(target, dict):
            target[draw(st.sampled_from(["nodes", "Seed", "x", ""]))] = draw(st.integers(0, 3))
    return config


@st.composite
def config_invocations(draw):
    """An argv taking its run from a config file, with sweep's node
    counts small, as a sweep of the default counts would not be."""
    argv = [draw(st.sampled_from(["run", "compare", "sweep"]))]
    if argv[0] == "sweep":
        argv += ["--nodes", draw(FLAGS["--nodes"][0])]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv


def with_changes(changes):
    """The defaults with the sizes small and ``changes`` made, as
    ``{section: {key: value}}`` or ``{key: value}`` for the top level."""
    config = copy.deepcopy(DEFAULTS)
    config["arena"]["node_count"], config["cluster_count"], config["max_frames"] = 6, 2, 20
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    return config


@settings(max_examples=300)
@given(config_invocations(), config_files())
@example(["run"], with_changes({}))
@example(["run"], [with_changes({})])  # a top level that is not an object
@example(["compare"], 7)
@example(["run", "--format", "json"], with_changes({"arena": {"side_a": float("nan")}}))
@example(["run"], with_changes({"energy": {"e_mh": float("inf")}}))
@example(["run"], with_changes({"arena": {"node_count": 10**401}}))
@example(["run"], with_changes({"arena": {"seed": 10**401}}))
@example(["compare"], with_changes({"arena": {"seed": 10**401}}))  # a finite CSV cell past float
@example(["run"], with_changes({"max_frames": True}))
@example(["run"], with_changes({"scenario": {"d_size": None}}))
@example(["run"], with_changes({"policy": ["dchne"]}))
@example(["run"], with_changes({"arena": [6, 2]}))  # a list where an object belongs
@example(["run"], with_changes({"msgs": "200"}))
@example(["run"], with_changes({"unknown": 1}))
@example(["run", "--format", "json"], with_changes({"energy": {"e_amp": 1e300}}))
@example(["run"], with_changes({"mobility_speed": -1e300}))
@example(["run"], with_changes({"arena": {"bs_position": [float("nan"), float("inf"), 0.0]}}))
@example(["run"], with_changes({"policy": 50}))
@example(["sweep", "--nodes", "4..8..2"], with_changes({"energy": {"e_radio_x": 1e-8}}))
@example(["run"], with_changes({"energy": {"e_radio": 0}}))  # integer election costs
def test_any_config_file_exits_cleanly(argv, config):
    assert_exits_cleanly(argv, config)
