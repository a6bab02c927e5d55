"""Election policies: winners, tie-breaks, charges, membership, rotation."""

import numpy as np
import pytest

from chsim import election
from chsim.election import (
    dchne_elect,
    dchne_reelect_cluster,
    geometric_partition,
    leach_elect,
    rrch_elect,
)
from chsim.energy import (
    ControlMessageSizes,
    ElectionCosts,
    EnergyParams,
    election_costs,
    setup_energy_chn,
    setup_energy_nchn,
    tx_intra,
)
from chsim.network import NO_CLUSTER, Network

import reference_engine

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


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


def elected(net):
    """The heads that an election flagged, in the order of their clusters:
    by id for dchne and leach, whose heads head clusters 0, 1, ... in
    ascending id order."""
    return tuple(sorted(np.flatnonzero(net.head).tolist(), key=lambda h: net.cluster[h]))


class TestDchne:
    @pytest.mark.parametrize("residuals, clusters, heads", [
        ([3.1, 2.0, 3.1], [0, 0, 0], (0,)),
        # three ways tied at 4.0 in cluster 1, two ways at 2.5 in cluster 0
        ([1.0, 4.0, 2.5, 4.0, 2.0, 2.5, 4.0], [0, 1, 0, 1, 1, 0, 1], (1, 2)),
    ], ids=["two-way", "three-way-and-two-way"])
    def test_tie_breaks_to_lowest_id(self, residuals, clusters, heads):
        net = make_net(len(residuals), residuals=residuals, clusters=clusters)
        c = len(set(clusters))
        dchne_elect(net, c, costs(net, c))
        assert elected(net) == heads

    def test_single_node_heads_sole_cluster(self):
        net = make_net(1)
        dchne_elect(net, 1, costs(net, 1), np.random.default_rng(3))
        assert elected(net) == (0,)
        assert net.cluster.tolist() == [0]
        assert net.head[0]

    def test_all_dead_elects_no_head(self):
        net = make_net(4)
        for i in range(4):
            kill(net, i)
        dchne_elect(net, 2, costs(net, 2), np.random.default_rng(0))
        assert elected(net) == ()
        assert not net.head.any()

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
        dchne_elect(net, 5, costs(net, 5))
        head_ids = elected(net)
        expected = set()
        for lab in np.unique(labels):
            members = np.nonzero(labels == lab)[0]
            best = members[before[members] == before[members].max()]
            expected.add(int(best.min()))
        assert set(head_ids) == expected

    def test_charges_follow_setup_formulas(self):
        net = make_net(8, clusters=[0, 0, 0, 0, 1, 1, 1, 1])
        c = 2
        dchne_elect(net, c, costs(net, c))
        head_ids = elected(net)
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
        dchne_elect(net, 4, costs(net, 4), np.random.default_rng(5))
        head_ids = elected(net)
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
        dchne_elect(net, 2, costs(net, 2))
        head_ids = elected(net)
        assert 0 not in head_ids
        assert not net.head[0]
        # every alive node joined a cluster that an alive head leads
        assert set(net.cluster[net.alive]) == set(net.cluster[net.head & net.alive])

    def test_cluster_count_collapses_to_alive_count(self):
        net = make_net(10)
        for i in range(7):
            kill(net, i)
        dchne_elect(net, 10, costs(net, 10), np.random.default_rng(1))
        head_ids = elected(net)
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
            dchne_elect(net, 3, costs(net, 3), np.random.default_rng(7))
            head_ids = elected(net)
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


class TestWholeVectorDebit:
    """Elections charge one full-length vector through ``Network.debit``;
    every node must end with the bits a debit per index set gives (the
    frozen per-index elections of ``reference_engine``)."""

    @staticmethod
    def twins(residuals, clusters=None, heads=()):
        nets = []
        for _ in range(2):
            net = make_net(len(residuals), residuals=3.5, clusters=clusters, seed=2)
            net.residual[:] = residuals
            net.consumed[:] = net.initial - net.residual
            net.head[list(heads)] = True
            nets.append(net)
        return nets

    @staticmethod
    def assert_same_bits(net, ref):
        for name in ("residual", "consumed"):
            np.testing.assert_array_equal(getattr(net, name).view(np.int64),
                                          getattr(ref, name).view(np.int64), err_msg=name)
        np.testing.assert_array_equal(net.head, ref.head)
        np.testing.assert_array_equal(net.cluster, ref.cluster)
        np.testing.assert_allclose(net.residual + net.consumed, net.initial, rtol=0, atol=1e-15)

    def test_trigger_kills_a_node_and_skips_the_dead(self):
        charges = costs(make_net(6), 2)
        # node 1 dies of the trigger with exactly its residual; nodes 2 and 4
        # are dead already; node 5 holds a subnormal residual
        residuals = [3.5, charges.trigger * 0.5, 0.0, 1.0, 0.0, 5e-324]
        net, ref = self.twins(residuals)
        survivors = election._new_round(net, charges)
        np.testing.assert_array_equal(survivors, reference_engine._new_round(ref, charges))
        np.testing.assert_array_equal(survivors, [0, 3])
        self.assert_same_bits(net, ref)
        assert net.residual[1] == 0.0 and net.consumed[1] == net.initial[1]
        assert net.consumed[2] == net.consumed[4] == 3.5  # no charge after death

    def test_head_killed_by_its_own_setup_charge(self):
        charges = costs(make_net(6), 2)
        residuals = [charges.head * 0.5, 2.0, 0.0, 1.0, 2.5, 1e-300]
        net, ref = self.twins(residuals, clusters=[0, 0, 0, 1, 1, 1])
        alive_idx = np.nonzero(net.alive)[0]
        head_idx = np.array([0, 3])
        election._install(net, head_idx, alive_idx, charges)
        ref_ids = reference_engine._install(
            ref, head_idx, reference_engine._non_heads(ref, alive_idx, head_idx), charges)
        assert elected(net) == ref_ids == (0, 3)
        self.assert_same_bits(net, ref)
        assert net.residual[0] == 0.0 and net.consumed[0] == net.initial[0]
        assert not net.alive[0] and net.head[0]  # the next frame dismisses it
        assert net.consumed[2] == 3.5 and net.residual[2] == 0.0

    def test_reelection_charges_one_cluster_only(self):
        charges = costs(make_net(9), 3)
        clusters = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        # cluster 1's head (3) has died; node 5 dies of the trigger, node 8
        # is dead, and the other clusters hold a subnormal and a tiny residual
        residuals = [1.0, 5e-324, 2.0, 0.0, 1.5, charges.trigger * 0.25, 1e-300, 0.5, 0.0]
        net, ref = self.twins(residuals, clusters=clusters, heads=(0, 6))
        winner = dchne_reelect_cluster(net, 1, charges)
        assert winner == reference_engine.dchne_reelect_cluster(ref, 1, charges) == 4
        self.assert_same_bits(net, ref)
        untouched = np.array(clusters) != 1
        np.testing.assert_array_equal(net.residual[untouched].view(np.int64),
                                      np.array(residuals)[untouched].view(np.int64))

    def test_integer_costs_charge_as_their_floats(self):
        # integer costs give int64 charge vectors, which the debit must take as
        # floats; the trigger kills node 1 and the member handshake nodes 3, 5 and 7
        ints = ElectionCosts(trigger=1, head=3, member=2)
        floats = ElectionCosts(*map(float, ints))
        residuals = [5.0, 0.5, 9.0, 2.5, 7.0, 1.5, 4.0, 3.0, 6.0]
        net, ref = self.twins(residuals, clusters=[0, 0, 0, 1, 1, 1, 2, 2, 2])
        dchne_elect(net, 3, ints)
        dchne_elect(ref, 3, floats)
        assert elected(net) == elected(ref) == (2, 4, 8)
        self.assert_same_bits(net, ref)
        np.testing.assert_array_equal(np.nonzero(~net.alive)[0], [1, 3, 5, 7])
        # head 4 dies; in its cluster the trigger kills node 6, and node 0
        # dies of its head setup charge
        label = int(net.cluster[4])
        for n in (net, ref):
            kill(n, 4)
            n.head[4] = False
        assert dchne_reelect_cluster(net, label, ints) == 0
        assert dchne_reelect_cluster(ref, label, floats) == 0
        self.assert_same_bits(net, ref)
        assert not net.alive[[0, 6]].any()

    @pytest.mark.parametrize("policy", ["dchne", "leach", "rrch"])
    def test_whole_rounds_match_per_index_debits(self, policy):
        c = 3
        net, ref = self.twins(np.linspace(1e-9, 2.0, 15))
        charges = costs(net, c)
        elect = {
            "dchne": (lambda n, engine: engine(n, c, charges, np.random.default_rng(1)),
                      dchne_elect, reference_engine._dchne_elect),
            "leach": (lambda n, engine: engine(n, c, 1, charges, np.random.default_rng(1), set()),
                      leach_elect, reference_engine._leach_elect),
            "rrch": (lambda n, engine: engine(n, c, charges, {}, np.random.default_rng(1)),
                     lambda n, c_, costs_, prev, rng: rrch_elect(n, c_, 0, costs_, prev, rng),
                     reference_engine._rrch_elect),
        }[policy]
        call, ours, theirs = elect
        for _ in range(3):  # later rounds run on the books the earlier ones left
            assert call(net, ours) is None  # the heads are net.head's flags
            assert elected(net) == call(ref, theirs)
            self.assert_same_bits(net, ref)


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
            leach_elect(net, 6, round_index, costs(net, 6), rng, headed)
            head_ids = elected(net)
            assert set(head_ids) == set(np.nonzero(net.alive)[0].tolist())

    def test_every_node_heads_during_an_epoch(self):
        rng = np.random.default_rng(123)
        headed = set()
        net = make_net(12, residuals=1000.0)
        served = []
        for round_index in range(4):  # epoch length = ceil(12 / 3)
            leach_elect(net, 3, round_index, costs(net, 3), rng, headed)
            served.extend(elected(net))
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
            leach_elect(net, 3, round_index, costs(net, 3), draws, headed)
            head_ids = elected(net)
            assert set(head_ids) == {4 * round_index + k for k in range(4)}
            assert seen.isdisjoint(head_ids)
            seen.update(head_ids)

    def test_fallback_drafts_highest_residual(self):
        headed = set()
        residuals = np.full(12, 5.0)
        residuals[8] = 9.0
        net = make_net(12, residuals=residuals)
        leach_elect(net, 3, 1, costs(net, 3), _ConstantDraws(1.0), headed)
        assert elected(net) == (8,)
        assert headed == {8}
        # a residual tie drafts the lowest id
        headed = set()
        net = make_net(12, residuals=5.0)
        leach_elect(net, 3, 1, costs(net, 3), _ConstantDraws(1.0), headed)
        assert elected(net) == (0,)
        assert headed == {0}

    def test_all_dead_elects_no_head_and_still_draws(self):
        net = make_net(6)
        for i in range(6):
            kill(net, i)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        leach_elect(net, 3, 1, costs(net, 3), rng, set())
        assert elected(net) == ()
        assert not net.head.any()
        # one draw per configured node, as in every round
        twin.random(6)
        assert rng.random() == twin.random()

    def test_mean_heads_per_round_tracks_cluster_count(self):
        rng = np.random.default_rng(77)
        headed = set()
        net = make_net(100, residuals=1000.0)
        counts = []
        for r in range(2000):
            leach_elect(net, 5, r, costs(net, 5), rng, headed)
            counts.append(len(elected(net)))
        assert np.mean(counts) == pytest.approx(5.0, abs=0.5)

    def test_draw_stream_is_fixed_size_per_round(self):
        # identical draw streams must yield identical heads even after deaths
        results = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            headed = set()
            net = make_net(10, residuals=100.0)
            kill(net, 3)
            rounds = []
            for r in range(5):
                leach_elect(net, 2, r, costs(net, 2), rng, headed)
                rounds.append(elected(net))
            results.append(rounds)
        assert results[0] == results[1]


class TestRrch:
    def rotate(self, net, rounds, c=1, rng_seed=0, on_round=None):
        prev_head = {}
        heads = []
        for r in range(rounds):
            rrch_elect(net, c, r, costs(net, c), prev_head, np.random.default_rng(rng_seed))
            heads.append(elected(net))
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
            rrch_elect(net, 4, r, costs(net, 4), prev_head, rng)
            head_ids = elected(net)
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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_stopping_at_the_fixed_point_gives_the_labels_of_20_sweeps(self, data, seed):
        # a small integer grid, so coincident points, ties and empty groups occur
        cells = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                   min_size=1, max_size=60))
        points = np.array(cells, dtype=float)
        k = data.draw(st.integers(1, len(points)))
        rng, twenty_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        labels = geometric_partition(points, k, rng)
        assert labels.tolist() == _twenty_sweeps(points, k, twenty_rng).tolist()
        assert rng.bit_generator.state == twenty_rng.bit_generator.state


def _twenty_sweeps(positions, k, rng):
    """geometric_partition as it was before it stopped at a fixed point:
    always 20 sweeps."""
    n = len(positions)
    centers = positions[rng.choice(n, size=k, replace=False)].copy()
    x, y = positions[:, :1], positions[:, 1:]
    for _ in range(20):
        d2 = np.square(x - centers[:, 0]) + np.square(y - centers[:, 1])
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if counts.all():
            centers[:, 0] = np.bincount(labels, weights=positions[:, 0], minlength=k) / counts
            centers[:, 1] = np.bincount(labels, weights=positions[:, 1], minlength=k) / counts
            continue
        for j in range(k):
            chosen = labels == j
            if chosen.any():
                centers[j] = positions[chosen].mean(axis=0)
            else:
                runaway = int(d2[np.arange(n), labels].argmax())
                centers[j] = positions[runaway]
                labels[runaway] = j
    return labels


@st.composite
def clustered_networks(draw):
    """A clustered network with residual ties, dead nodes and nodes that
    the election trigger kills (5e-6 J is below its charge)."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, n))
    residuals = draw(st.lists(st.sampled_from([5e-6, 1e-3, 2e-3, 3.5]), min_size=n, max_size=n))
    net = make_net(n, residuals=residuals, seed=draw(st.integers(0, 2**16)))
    net.cluster[:] = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    for dead in draw(st.sets(st.integers(0, n - 1))):
        kill(net, dead)
    return net, k


def triggered(net, k):
    """A copy of ``net`` after the election trigger, and its alive nodes
    by cluster in ascending id order."""
    after = make_net(len(net), positions=net.positions, clusters=net.cluster)
    after.residual[:], after.consumed[:] = net.residual, net.consumed
    alive = np.nonzero(after.alive)[0]
    after.debit(alive, costs(net, k).trigger)
    rosters = {}
    for i in range(len(after)):
        if after.alive[i]:
            rosters.setdefault(int(after.cluster[i]), []).append(i)
    return after, rosters


class TestVectorizedElectionsMatchScan:
    @settings(max_examples=200)
    @given(clustered_networks())
    def test_dchne_heads_are_each_clusters_first_best(self, case):
        net, k = case
        after, rosters = triggered(net, k)
        if not rosters:
            dchne_elect(net, k, costs(net, k))
            assert elected(net) == ()
            assert not net.head.any()
            return
        expected = []
        for roster in rosters.values():
            best = roster[0]
            for i in roster[1:]:
                if after.residual[i] > after.residual[best]:
                    best = i
            expected.append(best)
        dchne_elect(net, k, costs(net, k))
        heads = elected(net)
        assert heads == tuple(sorted(expected))
        positions = net.positions.tolist()
        for i in (i for roster in rosters.values() for i in roster if i not in heads):
            gaps = [(positions[i][0] - positions[h][0]) ** 2 + (positions[i][1] - positions[h][1]) ** 2
                    for h in heads]
            assert net.cluster[i] == gaps.index(min(gaps))

    @settings(max_examples=200)
    @given(clustered_networks(), st.data())
    def test_rrch_heads_are_each_clusters_next_in_id_order(self, case, data):
        net, k = case
        after, rosters = triggered(net, k)
        members = [np.nonzero(net.cluster == lab)[0].tolist() or [0] for lab in range(k)]
        # a last head anywhere in its cluster, dead or alive; its highest id forces a wrap-around
        prev_head = {lab: data.draw(st.sampled_from(ids)) for lab, ids in enumerate(members)}
        wrap = data.draw(st.integers(0, k - 1))
        prev_head[wrap] = max(members[wrap])
        expected = {}
        for lab, roster in sorted(rosters.items()):
            later = [i for i in roster if i > prev_head[lab]]
            expected[lab] = later[0] if later else roster[0]
        if not rosters:
            last_heads = dict(prev_head)
            rrch_elect(net, k, 1, costs(net, k), prev_head)
            assert elected(net) == ()
            assert not net.head.any()
            assert prev_head == last_heads
            return
        rrch_elect(net, k, 1, costs(net, k), prev_head)
        heads = elected(net)
        assert heads == tuple(expected.values())
        assert {lab: prev_head[lab] for lab in expected} == expected
        assert net.head.tolist() == [i in heads for i in range(len(net))]

    @settings(max_examples=200)
    @given(st.data())
    def test_joins_alike_with_kept_and_fresh_gaps(self, data):
        # a coarse grid, so that a member often stands as close to two heads
        n = data.draw(st.integers(1, 25))
        positions = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                       min_size=n, max_size=n))
        alive = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        heads = sorted(data.draw(st.sets(st.sampled_from(alive), min_size=1)))
        clusters = []
        for keep in (False, True):
            net = make_net(positions=positions)
            for dead in set(range(n)) - set(alive):
                kill(net, dead)
            if keep:
                net.keep_gaps()
            election._join_nearest(net, np.array(alive), np.array(heads), costs(net, len(heads)))
            clusters.append(net.cluster.tolist())
        expected = [NO_CLUSTER] * n
        for i in alive:
            gaps = [(positions[i][0] - positions[h][0]) ** 2 + (positions[i][1] - positions[h][1]) ** 2
                    for h in heads]
            expected[i] = heads.index(i) if i in heads else gaps.index(min(gaps))
        assert clusters == [expected, expected]


class TestKeptGaps:
    def test_assigning_positions_drops_the_kept_gaps(self):
        net = make_net(positions=[[0.0, 0.0], [10.0, 0.0], [1.0, 0.0]])
        net.keep_gaps()
        assert net.gaps(np.array([2]))[0].tolist() == [1.0, 81.0, 0.0]
        net.positions = np.array([[0.0, 0.0], [10.0, 0.0], [9.0, 0.0]])
        assert net.gaps(np.array([2]))[0].tolist() == [81.0, 1.0, 0.0]
        # the member now stands by the second head, and joins it
        election._join_nearest(net, np.arange(3), np.array([0, 1]), costs(net, 2))
        assert net.cluster.tolist() == [0, 1, 1]
