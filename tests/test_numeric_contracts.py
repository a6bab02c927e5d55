"""The float and numpy behaviours that chsim's exact traces rest on.

``run()`` and the elections reach the bytes of a frame-by-frame,
index-by-index engine only because numpy keeps these contracts:

* an election charges one full-length vector, so a node it does not
  charge pays ``0.0``: ``r - 0.0`` and ``c + 0.0`` must keep the bits of
  every residual and consumed energy, which are never negative or ``-0.0``;
* a segment's residuals and consumed energy come from one
  ``np.subtract.reduce``/``np.add.reduce`` (or ``accumulate``) down the
  rows of a C-contiguous ``(frames + 1, S)`` array, which must go row
  after row, as a loop over frames does;
* numpy sums a lone column pairwise instead, which is why ``run()`` takes
  ``np.add.accumulate`` when ``S == 1``;
* a head's inbound packets are a matrix product of 0/1 floats (or bools)
  with a 0/1 membership matrix, which must count exactly.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir(), "chsim-hypothesis"))

SMALLEST_SUBNORMAL = 5e-324
LARGEST_SUBNORMAL = 2.225073858507201e-308


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(st.floats(min_value=0.0, allow_subnormal=True), min_size=1, max_size=50))
@example([0.0, SMALLEST_SUBNORMAL, LARGEST_SUBNORMAL, 2.2250738585072014e-308,
          1.7976931348623157e308, float("inf")])
def test_an_uncharged_node_keeps_its_bits(values):
    x = np.array(values)
    nothing = np.zeros(len(x))
    # what Network.debit does with a charge of 0.0
    take = np.minimum(nothing, x)
    assert (bits(take) == 0).all()  # +0.0, never -0.0
    np.testing.assert_array_equal(bits(x - take), bits(x))
    np.testing.assert_array_equal(bits(x + take), bits(x))


def rows_with_pairwise_bits(rows: int, cols: int) -> np.ndarray:
    """A C-contiguous ``(rows, cols)`` array whose columns sum to other bits
    pairwise than row after row: a large first entry swallows each small
    one on its own, but not their pairwise partial sums."""
    rng = np.random.default_rng(7)
    values = rng.uniform(1e-17, 9e-17, size=(rows, cols))
    values[0] = rng.uniform(1.0, 2.0, size=cols)
    return values


def row_after_row(ufunc, values: np.ndarray) -> np.ndarray:
    acc = values[0].copy()
    for row in values[1:]:
        acc = ufunc(acc, row)
    return acc


@pytest.mark.parametrize("shape", [(200, 3), (21, 190), (81, 10)])
def test_reduce_down_the_rows_goes_row_after_row(shape):
    values = rows_with_pairwise_bits(*shape)
    # a pairwise sum of the columns would show: one column at a time, it differs
    pairwise = np.array([np.add.reduce(column) for column in values.T])
    assert (bits(pairwise) != bits(row_after_row(np.add, values))).any()
    for ufunc in (np.add, np.subtract):
        expected = row_after_row(ufunc, values)
        np.testing.assert_array_equal(bits(ufunc.reduce(values, axis=0)), bits(expected))
        np.testing.assert_array_equal(bits(ufunc.accumulate(values)[-1]), bits(expected))


def test_a_lone_column_is_summed_pairwise():
    lone = rows_with_pairwise_bits(200, 1)
    expected = row_after_row(np.add, lone)
    assert bits(np.add.reduce(lone, axis=0)) != bits(expected)
    # the branch run() takes when S == 1
    np.testing.assert_array_equal(bits(np.add.accumulate(lone)[-1]), bits(expected))


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 40), st.integers(1, 400), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_counting_by_matrix_product_is_exact(k, s, h, seed):
    rng = np.random.default_rng(seed)
    sends = rng.random((k, s)) < rng.random()
    joins = rng.random((s, h)) < rng.random()
    counts = np.array([[np.count_nonzero(sends[f] & joins[:, j]) for j in range(h)]
                       for f in range(k)])
    for left in (sends, sends.astype(float)):
        product = left @ joins.astype(float)
        np.testing.assert_array_equal(product, counts)
        np.testing.assert_array_equal(product.astype(np.int64), counts)


def test_counting_a_full_membership_is_exact():
    sends = np.ones((80, 4096), dtype=bool)
    np.testing.assert_array_equal(sends.astype(float) @ np.ones((4096, 1)), 4096.0)
