"""The segment commit against one ``Network.debit`` per frame.

``simulator._commit`` charges a segment's rows by reduce or accumulate,
one charge row per frame or one row for every frame, and caps the row
with the first death as ``debit`` caps it.  Every residual and consumed
energy must keep the bits of a loop that debits one row at a time and
stops after the first row that kills a node.
"""

import numpy as np
import pytest

from chsim.network import Network
from chsim.simulator import _commit

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def segment(rng, s: int, k: int, where: str, exact: bool, lone: bool):
    """A network with some nodes dead and the charges of one ``k``-row
    segment: ``(k, S)``, or ``(1, S)`` standing for every row when
    ``lone``.  Unless ``where`` is ``"none"``, the first death falls on
    the first, middle or last row, by a charge equal to the residual left
    (``exact``) or above it.  Dead nodes are charged 0.0."""
    net = Network(np.zeros((s, 2)), 1.0)
    spent = rng.uniform(0.0, 0.5, s)
    spent[rng.random(s) < 0.25] = 1.0
    alive = spent < 1.0
    # at most 0.04 a row over at most 10 rows: nobody dies of these alone
    rows = 1 if lone else k
    charges = rng.uniform(0.0, 0.04, (rows, s)) * (rng.random((rows, s)) < 0.7)
    victims = np.zeros(s, dtype=bool)
    if where != "none" and alive.any():
        row = {"first": 0, "middle": k // 2, "last": k - 1}[where]
        victims = alive & (rng.random(s) < 0.5)
        victims[rng.choice(np.nonzero(alive)[0])] = True
    if lone and victims.any():
        # a residual of row + 1 charges of 1/32: row charges leave exactly 1/32,
        # which the row after them takes, exactly or with up to 1/(32 (row + 1)) more
        spent[victims] = 1.0 - (row + 1) / 32
        over = 0.0 if exact else rng.uniform(0.01, 1.0, np.count_nonzero(victims)) / (row + 1)
        charges[0, victims] = (1.0 + over) / 32
    net.debit(slice(None), spent)
    if not lone and victims.any():
        left = net.residual.copy()
        for before in charges[:row]:
            left = left - before  # as a debit per row leaves it, since nobody dies
        charges[row, victims] = left[victims]
        if not exact:
            charges[row, victims] += rng.uniform(0.0, 1.0, np.count_nonzero(victims))
        charges[row + 1 :, rng.random(s) < 0.5] = 2.0  # later deaths are never charged
    charges[:, ~alive] = 0.0
    return net, charges


def debit_per_row(net: Network, charges, n_alive: int):
    residuals = []
    for row in charges:
        net.debit(slice(None), row)
        residuals.append(net.residual.copy())
        if np.count_nonzero(net.alive) < n_alive:
            break
    died = np.count_nonzero(net.alive) < n_alive
    charged = len(residuals)
    return (charged - 1 if died else charged), charged, np.array(residuals)


@pytest.mark.parametrize("s", [1, 6])
@pytest.mark.parametrize("where", ["none", "first", "middle", "last"])
@settings(max_examples=80)
@given(k=st.integers(1, 10), exact=st.booleans(), logged=st.booleans(), lone=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_commit_matches_a_debit_per_row(s, where, k, exact, logged, lone, seed):
    net, charges = segment(np.random.default_rng(seed), s, k, where, exact, lone)
    assert charges.shape == (1 if lone else k, s)
    reference = Network(net.positions, 1.0)
    reference.residual, reference.consumed = net.residual.copy(), net.consumed.copy()
    n_alive = int(np.count_nonzero(net.alive))
    # stale scratch rows, and more of them than the segment needs
    residual_rows = np.full((k + 4, s), np.nan)
    consumed_rows = np.full((k + 4, s), np.nan)

    clean, charged, residuals = _commit(net, charges, k, n_alive, logged, residual_rows,
                                        consumed_rows)
    # a lone row is charged k times
    expected_clean, expected_charged, expected = debit_per_row(
        reference, np.broadcast_to(charges, (k, s)), n_alive)

    assert (clean, charged) == (expected_clean, expected_charged)
    np.testing.assert_array_equal(bits(net.residual), bits(reference.residual))
    np.testing.assert_array_equal(bits(net.consumed), bits(reference.consumed))
    if logged:
        np.testing.assert_array_equal(bits(residuals), bits(expected))
    else:
        assert residuals is None
    if where != "none" and n_alive:
        assert clean == {"first": 0, "middle": k // 2, "last": k - 1}[where]
