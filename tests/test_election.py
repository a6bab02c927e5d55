"""Election policies: winners, tie-breaks, charges, membership, rotation."""

import numpy as np
import pytest

from chsim.election import (
    EmptyNetworkError,
    dchne_elect,
    dchne_reelect_cluster,
    geometric_partition,
    leach_elect,
    rrch_elect,
)
from chsim.energy import (
    ControlMessageSizes,
    EnergyParams,
    election_costs,
    setup_energy_chn,
    setup_energy_nchn,
    tx_intra,
)
from chsim.network import NO_CLUSTER, Network

AREA = 350.0
PARAMS = EnergyParams()
MSGS = ControlMessageSizes()


def make_net(n=None, positions=None, residuals=3.5, clusters=None, seed=0):
    if positions is None:
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, AREA, size=(n, 2))
    net = Network(positions, initial_energy=residuals)
    if clusters is not None:
        net.cluster[:] = clusters
    return net


def costs(net, c):
    """The election charges at this network's size and cluster count ``c``."""
    return election_costs(MSGS, AREA, len(net), c, PARAMS)


def kill(net, index):
    net.debit(np.array([index]), net.residual[index])


class TestDchne:
    def test_tie_breaks_to_lowest_id(self):
        net = make_net(3, residuals=[3.1, 2.0, 3.1], clusters=[0, 0, 0])
        assert dchne_elect(net, 1, costs(net, 1)) == (0,)

    def test_single_node_heads_sole_cluster(self):
        net = make_net(1)
        assert dchne_elect(net, 1, costs(net, 1), np.random.default_rng(3)) == (0,)
        assert net.cluster.tolist() == [0]
        assert net.head[0]

    def test_all_dead_raises(self):
        net = make_net(4)
        for i in range(4):
            kill(net, i)
        with pytest.raises(EmptyNetworkError):
            dchne_elect(net, 2, costs(net, 2), np.random.default_rng(0))

    def test_bad_cluster_count_raises(self):
        net = make_net(4)
        with pytest.raises(ValueError):
            dchne_elect(net, 0, costs(net, 1))

    def test_winner_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        net = make_net(
            50,
            residuals=rng.uniform(1.0, 3.5, size=50),
            clusters=rng.integers(0, 5, size=50),
        )
        before = net.residual.copy()
        labels = net.cluster.copy()
        head_ids = dchne_elect(net, 5, costs(net, 5))
        expected = set()
        for lab in np.unique(labels):
            members = np.nonzero(labels == lab)[0]
            best = members[before[members] == before[members].max()]
            expected.add(int(best.min()))
        assert set(head_ids) == expected

    def test_charges_follow_setup_formulas(self):
        net = make_net(8, clusters=[0, 0, 0, 0, 1, 1, 1, 1])
        c = 2
        head_ids = dchne_elect(net, c, costs(net, c))
        s = len(net)
        preamble = MSGS.d_preamble * PARAMS.e_radio
        head_cost = preamble + setup_energy_chn(MSGS, AREA, s, c, PARAMS) + tx_intra(
            MSGS.d_announce, AREA, c, PARAMS
        )
        member_cost = preamble + setup_energy_nchn(MSGS, AREA, c, PARAMS)
        for node_id, paid in enumerate(net.consumed):
            expected = head_cost if node_id in head_ids else member_cost
            assert paid == pytest.approx(expected, rel=1e-12)
        assert np.count_nonzero(net.consumed > 0.0) == s

    def test_members_join_nearest_head(self):
        net = make_net(40, seed=5)
        head_ids = dchne_elect(net, 4, costs(net, 4), np.random.default_rng(5))
        head_positions = {k: net.positions[h] for k, h in enumerate(head_ids)}
        for node_id, cluster in enumerate(net.cluster):
            if node_id in head_ids:
                continue
            p = net.positions[node_id]
            own = np.hypot(*(p - head_positions[cluster]))
            for other in head_positions.values():
                assert own <= np.hypot(*(p - other)) + 1e-9

    def test_dead_nodes_hold_no_role_and_get_no_votes(self):
        net = make_net(10, clusters=[0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        net.residual[0] = 5.0  # would win cluster 0 if it were alive
        net.initial[0] = 5.0
        kill(net, 0)
        head_ids = dchne_elect(net, 2, costs(net, 2))
        assert 0 not in head_ids
        assert not net.head[0]
        # every alive node joined a cluster that an alive head leads
        assert set(net.cluster[net.alive]) == set(net.cluster[net.head & net.alive])

    def test_cluster_count_collapses_to_alive_count(self):
        net = make_net(10)
        for i in range(7):
            kill(net, i)
        head_ids = dchne_elect(net, 10, costs(net, 10), np.random.default_rng(1))
        assert len(head_ids) == 3
        assert set(np.nonzero(net.cluster != NO_CLUSTER)[0].tolist()) == {7, 8, 9}

    def test_books_balance_after_election(self):
        net = make_net(30, seed=2)
        dchne_elect(net, 3, costs(net, 3), np.random.default_rng(2))
        np.testing.assert_allclose(net.initial, net.residual + net.consumed, rtol=1e-12)

    def test_election_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            net = make_net(25, seed=9)
            head_ids = dchne_elect(net, 3, costs(net, 3), np.random.default_rng(7))
            outcomes.append((head_ids, net.cluster.tolist(), net.consumed.tolist()))
        assert outcomes[0] == outcomes[1]


class TestReelection:
    def make_elected(self):
        net = make_net(12, seed=4)
        dchne_elect(net, 3, costs(net, 3), np.random.default_rng(4))
        return net

    def test_replacement_is_cluster_argmax(self):
        for tied in (False, True):
            net = self.make_elected()
            dead = int(np.nonzero(net.head)[0][0])
            label = int(net.cluster[dead])
            kill(net, dead)
            net.head[dead] = False
            members = np.nonzero(net.alive & (net.cluster == label))[0]
            if tied:  # drain every member to the poorest one's residual
                net.debit(members, net.residual[members] - net.residual[members].min())
            else:  # the highest index is left the richest
                net.debit(members, np.linspace(0.5, 0.0, len(members)))
            before = net.residual.copy()
            winner = dchne_reelect_cluster(net, label, costs(net, 3))
            best = members[before[members] == before[members].max()]
            assert winner == int(best.min())
            if tied:
                assert len(best) == len(members) > 1
                assert winner == int(members.min())
            else:
                assert winner == int(members.max())
            assert net.head[winner]
            assert net.cluster[winner] == label

    def test_other_clusters_untouched(self):
        net = self.make_elected()
        dead = int(np.nonzero(net.head)[0][0])
        label = int(net.cluster[dead])
        kill(net, dead)
        net.head[dead] = False
        other_heads = np.nonzero(net.head)[0]
        other_residuals = net.residual[net.cluster != label].copy()
        dchne_reelect_cluster(net, label, costs(net, 3))
        assert net.head[other_heads].all()
        np.testing.assert_array_equal(net.residual[net.cluster != label], other_residuals)

    def test_charges_follow_setup_formulas(self):
        net = self.make_elected()
        dead = int(np.nonzero(net.head)[0][0])
        label = int(net.cluster[dead])
        kill(net, dead)
        net.head[dead] = False
        members = np.nonzero(net.alive & (net.cluster == label))[0]
        assert len(members) > 1
        before = net.consumed.copy()
        winner = dchne_reelect_cluster(net, label, costs(net, 3))
        s, c = len(net), 3
        preamble = MSGS.d_preamble * PARAMS.e_radio
        head_cost = preamble + setup_energy_chn(MSGS, AREA, s, c, PARAMS) + tx_intra(
            MSGS.d_announce, AREA, c, PARAMS
        )
        member_cost = preamble + setup_energy_nchn(MSGS, AREA, c, PARAMS)
        paid = net.consumed - before
        for node_id in range(s):
            if node_id == winner:
                assert paid[node_id] == pytest.approx(head_cost, rel=1e-12)
            elif node_id in members:
                assert paid[node_id] == pytest.approx(member_cost, rel=1e-12)
            else:
                assert paid[node_id] == 0.0

    def test_extinct_cluster_returns_none(self):
        net = self.make_elected()
        label = int(net.cluster[np.nonzero(net.head)[0][0]])
        for i in np.nonzero(net.cluster == label)[0]:
            kill(net, int(i))
            net.head[i] = False
        assert dchne_reelect_cluster(net, label, costs(net, 3)) is None


class _ConstantDraws:
    """Stand-in rng whose uniform block is a constant, for forcing
    self-election outcomes."""

    def __init__(self, value):
        self.value = value

    def random(self, n):
        return np.full(n, self.value)


class TestLeach:
    def test_everyone_elects_when_p_is_one(self):
        rng = np.random.default_rng(0)
        headed = set()
        net = make_net(6)
        for round_index in range(4):
            head_ids = leach_elect(net, 6, round_index, costs(net, 6), rng, headed)
            assert set(head_ids) == set(np.nonzero(net.alive)[0].tolist())

    def test_every_node_heads_during_an_epoch(self):
        rng = np.random.default_rng(123)
        headed = set()
        net = make_net(12, residuals=1000.0)
        served = []
        for round_index in range(4):  # epoch length = ceil(12 / 3)
            served.extend(leach_elect(net, 3, round_index, costs(net, 3), rng, headed))
        assert set(served) == set(range(12))

    def test_headed_nodes_sit_out_rest_of_epoch(self):
        class _ScriptedDraws:
            # each round, nodes 0..4r+3 draw a winning value; earlier
            # winners must be filtered out by their headed status alone
            round = 0

            def random(self, n):
                block = np.full(n, 0.99)
                block[: 4 * (self.round + 1)] = 0.0
                self.round += 1
                return block

        headed = set()
        net = make_net(12, residuals=1000.0)
        draws = _ScriptedDraws()
        seen = set()
        for round_index in range(3):
            head_ids = leach_elect(net, 3, round_index, costs(net, 3), draws, headed)
            assert set(head_ids) == {4 * round_index + k for k in range(4)}
            assert seen.isdisjoint(head_ids)
            seen.update(head_ids)

    def test_fallback_drafts_highest_residual(self):
        headed = set()
        residuals = np.full(12, 5.0)
        residuals[8] = 9.0
        net = make_net(12, residuals=residuals)
        assert leach_elect(net, 3, 1, costs(net, 3), _ConstantDraws(1.0), headed) == (8,)
        assert headed == {8}
        # a residual tie drafts the lowest id
        headed = set()
        net = make_net(12, residuals=5.0)
        assert leach_elect(net, 3, 1, costs(net, 3), _ConstantDraws(1.0), headed) == (0,)
        assert headed == {0}

    def test_mean_heads_per_round_tracks_cluster_count(self):
        rng = np.random.default_rng(77)
        headed = set()
        net = make_net(100, residuals=1000.0)
        counts = [
            len(leach_elect(net, 5, r, costs(net, 5), rng, headed))
            for r in range(2000)
        ]
        assert np.mean(counts) == pytest.approx(5.0, abs=0.5)

    def test_draw_stream_is_fixed_size_per_round(self):
        # identical draw streams must yield identical heads even after deaths
        results = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            headed = set()
            net = make_net(10, residuals=100.0)
            kill(net, 3)
            results.append(
                [
                    leach_elect(net, 2, r, costs(net, 2), rng, headed)
                    for r in range(5)
                ]
            )
        assert results[0] == results[1]


class TestRrch:
    def rotate(self, net, rounds, c=1, rng_seed=0, on_round=None):
        prev_head = {}
        heads = []
        for r in range(rounds):
            heads.append(
                rrch_elect(net, c, r, costs(net, c), prev_head, np.random.default_rng(rng_seed))
            )
            if on_round is not None:
                on_round(r, net)
        return heads

    def test_rotation_follows_ascending_ids(self):
        net = make_net(3, clusters=None)
        heads = self.rotate(net, 4)
        assert heads == [(0,), (1,), (2,), (0,)]

    def test_rotation_skips_dead_member(self):
        net = make_net(3)

        def killer(round_index, net):
            if round_index == 0:
                kill(net, 1)

        heads = self.rotate(net, 3, on_round=killer)
        assert heads == [(0,), (2,), (0,)]

    def test_each_member_heads_exactly_once_per_cycle(self):
        net = make_net(5)
        heads = self.rotate(net, 5)
        flat = [h for (h,) in heads]
        assert sorted(flat) == list(range(5))

    def test_membership_never_changes(self):
        net = make_net(20, seed=8)
        prev_head = {}
        rrch_elect(net, 4, 0, costs(net, 4), prev_head, np.random.default_rng(8))
        first = net.cluster.copy()
        for r in range(1, 6):
            rrch_elect(net, 4, r, costs(net, 4), prev_head, None)
            np.testing.assert_array_equal(net.cluster, first)

    def test_heads_are_alive_and_one_per_cluster(self):
        net = make_net(20, seed=8)
        prev_head = {}
        rng = np.random.default_rng(8)
        for r in range(8):
            head_ids = rrch_elect(net, 4, r, costs(net, 4), prev_head, rng)
            labels = [net.cluster[h] for h in head_ids]
            assert len(set(labels)) == len(head_ids)
            for h in head_ids:
                assert net.residual[h] >= 0.0
                assert net.head[h]


class TestGeometricPartition:
    def test_deterministic_and_complete(self):
        rng = np.random.default_rng(21)
        points = rng.uniform(0, AREA, size=(60, 2))
        a = geometric_partition(points, 6, np.random.default_rng(1))
        b = geometric_partition(points, 6, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        assert set(a) == set(range(6))
        assert len(a) == 60

    def test_singleton_groups_when_k_equals_n(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, AREA, size=(5, 2))
        labels = geometric_partition(points, 5, np.random.default_rng(2))
        assert sorted(labels) == list(range(5))

    def test_empty_group_is_reseeded_at_the_farthest_point(self):
        class _CoincidentChoice:
            # both initial centers on the same point, so group 1 starts empty
            def choice(self, n, size, replace):
                return np.array([0, 1])

        points = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
        labels = geometric_partition(points, 2, _CoincidentChoice())
        assert labels.tolist() == [0, 0, 1]

    def test_rejects_bad_group_count(self):
        points = np.zeros((4, 2))
        with pytest.raises(ValueError):
            geometric_partition(points, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            geometric_partition(points, 0, np.random.default_rng(0))
