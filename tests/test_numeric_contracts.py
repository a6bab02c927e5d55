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
  with a 0/1 membership matrix, which must count exactly;
* the row of a segment with a death is capped as ``Network.debit`` caps
  it: ``r - min(c, r)`` must be exactly ``0.0`` when ``c >= r``, and
  positive when ``c < r``;
* ``-0.0 + x`` must keep the bits of every float ``x`` but NaN, ``-0.0``
  among them, so ``energy.tx_to_bs`` can sum its terms onto ``-0.0`` in the
  body that ``energy.head_uplink`` sums onto ``sched_energy``;
* ``np.bincount(weights=...)`` must sum each group in ascending index
  order, as ``mean(axis=0)`` does, so both branches of
  ``geometric_partition`` give the same centers;
* Python's float ``%`` must give the bytes of ``np.mod``, so mobility's
  walked coordinates match its folded rows;
* the streams of ``substream`` must stay the same, which NEP 19 does not
  promise across numpy versions;
* a row of the squared distances that a static run keeps must hold the
  bytes of the row that ``Network.gaps`` computes fresh for that node, as
  a mobile run does; ``(a - b)**2`` has the bits of ``(b - a)**2``, so a
  node's row is also its column.
"""

import numpy as np
import pytest

from chsim.arena import substream
from chsim.network import Network

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


SMALLEST_SUBNORMAL = 5e-324
LARGEST_SUBNORMAL = 2.225073858507201e-308


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=500)
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


@settings(max_examples=1000)
@given(st.floats(allow_nan=False))
@example(0.0)
@example(-0.0)
@example(float("inf"))
@example(float("-inf"))
@example(SMALLEST_SUBNORMAL)
@example(-SMALLEST_SUBNORMAL)
def test_negative_zero_is_the_additive_identity(x):
    assert bits([-0.0 + x]) == bits([x])
    np.testing.assert_array_equal(bits(-0.0 + np.array([x])), bits([x]))
    assert bits([0.0 + -0.0]) != bits([-0.0])  # +0.0 is not: it loses the sign of -0.0


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


@settings(max_examples=200)
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


@settings(max_examples=500)
@given(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1e300))
@example(1.0, 1.0)
@example(SMALLEST_SUBNORMAL, SMALLEST_SUBNORMAL)
@example(0.1 + 0.2, 0.30000000000000004)
@example(1.0, 1.0 + 2**-52)
@example(0.0, 0.0)
def test_the_capped_death_row_leaves_exactly_zero(r, c):
    # what Network.debit, and the row with a death in a segment, does
    take = np.minimum(np.array([c]), np.array([r]))
    left = np.array([r]) - take
    if c >= r:
        assert bits(left)[0] == 0  # +0.0: the node is dead, not -0.0
    else:
        assert left[0] > 0.0  # no charge below the residual kills a node


def test_bincount_sums_each_group_in_index_order():
    k = 3
    values = rows_with_pairwise_bits(200, k).ravel()  # a large entry, then small ones, per group
    labels = np.arange(len(values)) % k
    groups = [values[labels == j] for j in range(k)]
    pairwise = np.array([np.add.reduce(group) for group in groups])
    in_order = np.array([row_after_row(np.add, group) for group in groups])
    assert (bits(pairwise) != bits(in_order)).any()
    sums = np.bincount(labels, weights=values, minlength=k)
    np.testing.assert_array_equal(bits(sums), bits(in_order))
    # geometric_partition's two branches: bincount over counts, and mean()
    positions = np.stack([values, values[::-1]], axis=1)
    counts = np.bincount(labels, minlength=k)
    for axis in (0, 1):
        centers = np.bincount(labels, weights=positions[:, axis], minlength=k) / counts
        means = [positions[labels == j].mean(axis=0)[axis] for j in range(k)]
        np.testing.assert_array_equal(bits(centers), bits(means))


@settings(max_examples=1000)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(min_value=SMALLEST_SUBNORMAL, max_value=1e300))
@example(-1e-20, 100.0)  # rounds up to the divisor itself
@example(-0.0, 100.0)
@example(-250.0, 100.0)
@example(450.0, 100.0)  # past 2 side, for a side of 100
@example(1e300, 0.3)
def test_python_float_mod_gives_the_bytes_of_np_mod(y, side):
    two = 2.0 * side
    assert bits(y % two) == bits(np.mod(y, two))


# substream(0, channel).random(3) for PLACEMENT, MOBILITY, SCENARIO,
# LEACH_DRAWS and PARTITION, recorded with numpy 2.4
FIRST_DRAWS = [
    [0.9429375528828794, 0.3163371523854981, 0.7223425886498254],
    [0.6771968569751019, 0.2429867485428212, 0.6117637963218119],
    [0.8382711479571602, 0.08372444856512495, 0.6176152913826177],
    [0.3644334333698406, 0.5113367953594365, 0.4575760101773514],
    [0.6529725757834846, 0.32395866639788673, 0.16410961774742827],
]


@pytest.mark.parametrize("channel", range(5))
def test_substream_first_draws_are_pinned(channel):
    assert substream(0, channel).random(3).tolist() == FIRST_DRAWS[channel]


# any arena the config accepts: every corner within about 1.16e77 m of the base station
COORDINATES = st.floats(min_value=0.0, max_value=1e77)


@settings(max_examples=300)
@given(st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=30))
@example([(0.0, 0.0), (SMALLEST_SUBNORMAL, 1e77), (1e77, LARGEST_SUBNORMAL), (0.1, 0.3)])
def test_a_kept_row_holds_the_bytes_of_a_fresh_row(points):
    net = Network(points)
    fresh = [net.gaps(np.array([r])) for r in range(len(net))]
    net.keep_gaps()
    kept = net.gaps(np.arange(len(net)))
    for r, row in enumerate(fresh):
        assert row.shape == (1, len(net))
        assert kept[r:r + 1].tobytes() == row.tobytes()
    assert kept.tobytes() == np.ascontiguousarray(kept.T).tobytes()
