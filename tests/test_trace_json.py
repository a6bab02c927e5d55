"""The streamed JSON trace writer gives the bytes of one ``json.dumps``
call on the whole trace.

The differential tests send both engines' traces through the same
``export``, so a wrong writer would pass them; these tests compare it
with the document the writer replaced, encoded in one call.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chsim import metrics
from chsim.config import ArenaConfig, SimConfig, config_to_dict
from chsim.metrics import export
from chsim.simulator import run

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

# Hypothesis caches facts about the code under test; keep them out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir(), "chsim-hypothesis"))


def oracle(trace) -> bytes:
    """The trace's document as the writer before streaming built it."""
    doc = {
        "config": config_to_dict(trace.config),
        "termination": trace.termination,
        "alive": trace.alive.tolist(),
        "packets_cum": trace.packets_cum.tolist(),
        "chn_count": trace.chn_count.tolist(),
        "head_change_frames": list(trace.head_change_frames),
        "head_change_ids": [list(ids) for ids in trace.head_change_ids],
        "reelections": [list(r) for r in trace.reelections],
        "final_residual": trace.final_residual.tolist(),
        "final_consumed": trace.final_consumed.tolist(),
        "residuals": None if trace.residual_log is None
        else [r.tolist() for r in trace.residual_log],
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def one_shot(matrix) -> bytes:
    """A matrix's text as ``json.dumps`` writes it in one call."""
    return json.dumps(matrix.tolist(), separators=(",", ":")).encode()


@contextlib.contextmanager
def forking(cpus: int):
    """Write every residual matrix on up to ``cpus`` CPUs, one changed
    cell a range being enough."""
    with mock.patch.object(metrics, "_FORK_MIN_CHANGED", 1), \
            mock.patch.object(metrics, "_usable_cpus", lambda: cpus):
        yield


def exported(trace) -> bytes:
    """The trace exported to a file-like and to a path, which must agree,
    with the byte count ``export`` returns checked for each."""
    out = io.BytesIO()
    assert export(trace, "json", out) == len(out.getvalue())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "trace.json")
        assert export(trace, "json", path) == path.stat().st_size
        assert path.read_bytes() == out.getvalue()
    return out.getvalue()


def traced(**overrides):
    defaults = dict(arena=ArenaConfig(node_count=12, seed=4), cluster_count=2, max_frames=30,
                    record_residuals=True)
    defaults.update(overrides)
    return run(SimConfig(**defaults))


SMALL = traced()
# 190 nodes, one frame more than a block of the streamed matrix holds
BLOCK_PLUS_ONE = traced(arena=ArenaConfig(seed=2), cluster_count=10,
                        max_frames=metrics._JSON_BLOCK_ENTRIES // 190 + 1)


@pytest.mark.parametrize("trace", [
    pytest.param(traced(max_frames=0), id="no-frames"),
    pytest.param(traced(max_frames=1), id="one-frame"),
    pytest.param(traced(record_residuals=False), id="no-residuals"),
    pytest.param(SMALL, id="small"),
    pytest.param(BLOCK_PLUS_ONE, id="block-plus-one"),
])
def test_run_traces_match_one_shot_encoding(trace):
    assert exported(trace) == oracle(trace)


def test_block_plus_one_spans_two_blocks():
    assert len(BLOCK_PLUS_ONE) == BLOCK_PLUS_ONE.config.max_frames
    pieces = list(metrics._matrix_json(BLOCK_PLUS_ONE.residual_log))
    assert len(pieces) == 4  # "[", two blocks, "]"


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.8e308, -1.8e308,
           math.inf, -math.inf, math.nan, -math.nan, 1.0, 0.1, 3.5]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))


@settings(max_examples=200, deadline=None, database=None)
@given(
    matrix=st.tuples(st.integers(0, 9), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=FLOATS)),
    block_entries=st.integers(1, 40),
)
def test_any_float_matrix_matches_one_shot_encoding(matrix, block_entries):
    # non-finite values come out as json.dumps writes them: NaN, Infinity, -Infinity
    trace = dataclasses.replace(SMALL, residual_log=matrix)
    with mock.patch.object(metrics, "_JSON_BLOCK_ENTRIES", block_entries):
        assert exported(trace) == oracle(trace)


def differs(value: float) -> float:
    """A special value whose bits differ from ``value``'s."""
    bits = np.float64(value).view(np.int64)
    return next(x for x in SPECIAL if np.float64(x).view(np.int64) != bits)


@st.composite
def column_runs(draw):
    """A matrix whose rows each copy a random subset of the row above,
    and the rows per block to write it in.  A block's first row may be
    forced to change in one column, so that a run starts exactly there."""
    rows, width, step = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    matrix = [draw(arrays(np.float64, width, elements=FLOATS))]
    for r in range(1, rows):
        keep = draw(arrays(bool, width))
        row = np.where(keep, matrix[-1], draw(arrays(np.float64, width, elements=FLOATS)))
        if r % step == 0 and draw(st.booleans()):
            col = draw(st.integers(0, width - 1))
            row[col] = differs(matrix[-1][col])
        matrix.append(row)
    return np.array(matrix), step


@settings(max_examples=300, deadline=None, database=None)
@given(case=column_runs())
def test_column_runs_across_blocks_match_one_shot_encoding(case):
    matrix, step = case
    trace = dataclasses.replace(SMALL, residual_log=matrix)
    with mock.patch.object(metrics, "_JSON_BLOCK_ENTRIES", step * matrix.shape[1]):
        assert exported(trace) == oracle(trace)


@settings(max_examples=2000, deadline=None, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
def test_no_finite_repr_contains_an_n(value):
    # the writer finds a block's non-finite texts by looking for an "n"
    assert "n" not in repr(value)


# Equal as floats, distinct as bits: each must start a run of its own.
# The infinities repeat, so at one row per block a block's only
# non-finite text is one carried from the block before.
BIT_DISTINCT = np.array([
    [0.0, -0.0, -0.0, 0.0, 0.0, math.nan, -math.nan, -math.nan, math.nan,
     math.inf, math.inf, -math.inf, -math.inf],
    [1.5] * 13,
]).T


@pytest.mark.parametrize("step", range(1, len(BIT_DISTINCT) + 1))
def test_bit_distinct_equal_values_down_a_column(step):
    assert np.signbit(BIT_DISTINCT[:, 0]).tolist() == [0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1]
    trace = dataclasses.replace(SMALL, residual_log=BIT_DISTINCT)
    with mock.patch.object(metrics, "_JSON_BLOCK_ENTRIES", step * 2):
        assert exported(trace) == oracle(trace)


def test_matrix_wider_than_a_block_goes_one_row_per_block():
    width = metrics._JSON_BLOCK_ENTRIES + 1
    rng = np.random.default_rng(5)
    matrix = rng.choice([0.25, -0.0, 0.0, 1e-300, math.inf, 2.0 / 3.0], (4, width))
    matrix[2] = matrix[1]
    matrix[3, ::2] = matrix[2, ::2]
    pieces = list(metrics._rows_json(matrix.view(np.int64), 0, len(matrix)))
    assert len(pieces) == len(matrix)  # one piece per row
    trace = dataclasses.replace(SMALL, residual_log=matrix)
    assert exported(trace) == oracle(trace)
    # each half of the taller matrix spills more than one read's worth
    tall = np.tile(matrix, (4, 1))
    with forking(2):
        pieces = list(metrics._matrix_json(tall))
    assert max(map(len, pieces)) == metrics._SPILL_READ_BYTES == 256 * 1024
    assert b"".join(pieces) == one_shot(tall)


def test_each_range_gets_at_least_the_threshold_of_changed_cells():
    bits = np.random.default_rng(2).random((50, 10)).view(np.int64)  # every cell changed
    with mock.patch.object(metrics, "_FORK_MIN_CHANGED", 100), \
            mock.patch.object(metrics, "_usable_cpus", lambda: 64):
        # 500 changed cells: five ranges of 10 rows, however many CPUs
        assert metrics._row_bounds(bits) == [0, 10, 20, 30, 40, 50]
        # 190 changed cells, then 200: one range below twice the threshold
        assert metrics._row_bounds(np.vstack([bits[:19], np.tile(bits[18], (31, 1))])) == [0, 50]
        assert len(metrics._row_bounds(np.vstack([bits[:20], np.tile(bits[19], (30, 1))]))) == 3


@st.composite
def split_runs(draw):
    """A :func:`column_runs` case and the bounds of up to four row
    ranges to write it in."""
    matrix, step = draw(column_runs())
    rows = len(matrix)
    cuts = draw(st.sets(st.integers(1, rows - 1), max_size=3)) if rows > 1 else set()
    return matrix, step, [0, *sorted(cuts), rows]


# Row 2 repeats row 1; the specials sit in the rows either side of a cut.
REPEATED_ROW = np.array([[1.0, 2.0], [3.0, 4.0], [3.0, 4.0], [5.0, 4.0]])
SPECIAL_ROWS = np.array([[0.5, 0.5, 0.5, 0.5], [math.nan, -0.0, math.inf, -math.inf],
                         [-0.0, math.nan, -math.inf, math.inf], [0.0, 0.0, 0.0, 0.0]])


@settings(max_examples=100, deadline=None, database=None)
@given(case=split_runs())
@example(case=(REPEATED_ROW, 2, [0, 2, 4]))  # the cut falls on a block boundary
@example(case=(REPEATED_ROW, 1, [0, 1, 2, 3, 4]))
@example(case=(SPECIAL_ROWS, 2, [0, 1, 2, 4]))
@example(case=(SPECIAL_ROWS, 3, [0, 2, 3, 4]))
def test_forked_ranges_match_serial_writer_and_one_shot_encoding(case):
    matrix, step, bounds = case
    bits = matrix.view(np.int64)
    with mock.patch.object(metrics, "_JSON_BLOCK_ENTRIES", step * matrix.shape[1]):
        serial = b"".join(metrics._rows_json(bits, 0, len(bits)))
        forked = b"".join(metrics._forked_rows_json(bits, bounds))
    assert forked == serial
    assert b"[" + serial + b"]" == one_shot(matrix)


@settings(max_examples=80, deadline=None, database=None)
@given(case=column_runs(), cpus=st.integers(1, 4))
@example(case=(np.empty((0, 3)), 1), cpus=2)
@example(case=(SPECIAL_ROWS[:1], 1), cpus=4)
@example(case=(SPECIAL_ROWS[1:3], 1), cpus=4)
def test_matrix_on_one_to_four_cpus_matches_one_shot_encoding(case, cpus):
    # 1- and 2-row matrices, and more CPUs than rows, are cut into at most one range a row
    matrix, step = case
    rows = len(matrix)
    trace = dataclasses.replace(SMALL, residual_log=matrix)
    with forking(cpus), mock.patch.object(metrics, "_JSON_BLOCK_ENTRIES", step * matrix.shape[1]):
        bounds = metrics._row_bounds(matrix.view(np.int64))
        assert exported(trace) == oracle(trace)
    assert bounds[0] == 0 and bounds[-1] == rows
    assert len(bounds) - 1 <= max(1, min(cpus, rows))
    assert all(a < b for a, b in zip(bounds, bounds[1:])) or rows == 0
