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
import orjson
import pytest

from chsim import metrics
from chsim.config import ArenaConfig, SimConfig, config_to_dict
from chsim.metrics import export
from chsim.simulator import run

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402


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


@settings(max_examples=200)
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


# small ints go to orjson; any of magnitude 1e16 or more, such as -2**63, to json.dumps
INT64 = st.one_of(st.integers(-10**4, 10**4), st.integers(-2**63, 2**63 - 1))
COLUMN = arrays(np.int64, st.integers(0, 30), elements=INT64)
BOOK = arrays(np.float64, 12, elements=FLOATS)


@settings(max_examples=200)
@given(columns=st.tuples(COLUMN, COLUMN, COLUMN), books=st.tuples(BOOK, BOOK),
       block_entries=st.integers(1, 40))
def test_any_columns_and_books_match_one_shot_encoding(columns, books, block_entries):
    # the 1-D arrays keep their dtype: an int column is never written as 190.0
    alive, packets_cum, chn_count = columns
    trace = dataclasses.replace(SMALL, alive=alive, packets_cum=packets_cum, chn_count=chn_count,
                                final_residual=books[0], final_consumed=books[1])
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


SPECIAL_ROWS = np.array([[0.5, 0.5, 0.5, 0.5], [math.nan, -0.0, math.inf, -math.inf],
                         [-0.0, math.nan, -math.inf, math.inf], [0.0, 0.0, 0.0, 0.0]])


@settings(max_examples=300)
@given(case=column_runs())
@example(case=(np.empty((0, 3)), 1))
@example(case=(SPECIAL_ROWS[:1], 1))
@example(case=(SPECIAL_ROWS[1:3], 1))
@example(case=(SPECIAL_ROWS, 2))
def test_column_runs_across_blocks_match_one_shot_encoding(case):
    matrix, step = case
    trace = dataclasses.replace(SMALL, residual_log=matrix)
    with mock.patch.object(metrics, "_JSON_BLOCK_ENTRIES", step * matrix.shape[1]):
        assert exported(trace) == oracle(trace)



@settings(max_examples=2000)
@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(float(np.nextafter(1e-4, 0)))
@example(1e16)
def test_no_finite_repr_contains_an_n(value):
    # json.dumps writes the non-finite values as NaN, Infinity and -Infinity,
    # and orjson would write them as null: a finite value's text never has an
    # "n", so on either path of the writer an "n" shows a value made non-finite
    assert "n" not in repr(value)
    assert b"n" not in b"".join(metrics._matrix_json(np.array([[value]])))

# Equal as floats, distinct as bits: -0.0 and 0.0, NaN of either sign,
# and the infinities, which send their blocks to json.dumps while the
# blocks of 0.0, -0.0 and 1.5 alone go to orjson.
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
    matrix[1, np.isin(matrix[1], [1e-300, math.inf])] = 0.5  # only rows 1 and 2 suit orjson
    matrix[2] = matrix[1]
    matrix[3, ::2] = matrix[2, ::2]
    pieces = list(metrics._matrix_json(matrix))
    assert len(pieces) == len(matrix) + 2  # "[", one piece per row, "]"
    trace = dataclasses.replace(SMALL, residual_log=matrix)
    assert exported(trace) == oracle(trace)


@contextlib.contextmanager
def orjson_blocks():
    """Count the blocks the writer hands to orjson."""
    with mock.patch.object(orjson, "dumps", wraps=orjson.dumps) as dumps:
        yield dumps


# Either side of the range orjson writes as json.dumps does: ±0.0 and
# magnitudes in [1e-4, 1e16).  True where a block of it goes to orjson.
BOUNDARY = [
    (0.0, True), (-0.0, True), (1e-4, True), (np.nextafter(1e-4, 0), False),
    (np.nextafter(1e16, 0), True), (1e16, False), (5e-324, False),
    (math.nan, False), (math.inf, False), (-math.inf, False),
]


@pytest.mark.parametrize("value, in_range", BOUNDARY, ids=[repr(float(v)) for v, _ in BOUNDARY])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_range_boundaries_match_one_shot_encoding(value, in_range, sign):
    value = sign * float(value)
    plain = np.full((3, 4), 0.5)
    for matrix in (np.array([[value]]), np.where(np.eye(3, 4, 1, dtype=bool), value, plain)):
        with orjson_blocks() as dumps:
            text = b"".join(metrics._matrix_json(matrix))
        assert text == one_shot(matrix)
        assert dumps.call_count == in_range
    with orjson_blocks() as dumps:
        assert b"".join(metrics._matrix_json(plain)) == one_shot(plain)
    assert dumps.call_count == 1


def test_random_bits_in_range_go_through_orjson():
    # 200 000 float64 bit patterns spread over every magnitude in [1e-4, 1e16), either sign
    rng = np.random.default_rng(21)
    lo, hi = np.array([1e-4, np.nextafter(1e16, 0)]).view(np.int64)
    bits = rng.integers(lo, hi, size=(1000, 200), endpoint=True)
    bits |= rng.integers(0, 2, size=bits.shape) << 63
    matrix = bits.view(np.float64)
    assert ((np.abs(matrix) >= 1e-4) & (np.abs(matrix) < 1e16)).all()
    with orjson_blocks() as dumps:
        text = b"".join(metrics._matrix_json(matrix))
    assert dumps.call_count == -(-len(matrix) // (metrics._JSON_BLOCK_ENTRIES // 200))
    assert text == one_shot(matrix)
