import math

import numpy as np
import pytest

from chsim.energy import (
    ControlMessageSizes,
    EnergyParams,
    frame_consumption_chn,
    frame_consumption_nchn,
    rx_cluster,
    sched_energy,
    setup_energy_chn,
    setup_energy_nchn,
    tx_intra,
    tx_to_bs,
)

P = EnergyParams()


# Independent arithmetic oracles: spelled out term by term, never calling
# the functions under test.

def oracle_tx_intra(d, a, c, p=P):
    return d * p.e_radio + d * p.e_amp * a * a / (2.0 * math.pi * c)


def oracle_tx_to_bs(d, r, p=P):
    return d * p.e_radio + d * p.e_mh * r * r * r * r


def oracle_rx_cluster(d, s, c, p=P):
    return d * p.e_radio * (s / c - 1.0)


def oracle_sched(d, s, c, p=P):
    return d * p.e_sched * (s / c - 1.0)


class TestDefaults:
    def test_table_values(self):
        assert P.e_radio == 40e-9
        assert P.e_amp == 9e-12
        assert P.e_mh == pytest.approx(1.1e-15, rel=1e-12)
        assert P.e_sched == 40e-9
        assert P.e_agg == 6e-9

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            EnergyParams(e_radio=-1e-9)
        with pytest.raises(ValueError):
            EnergyParams(e_amp=float("nan"))

    def test_message_size_defaults(self):
        m = ControlMessageSizes()
        assert (m.d_adv, m.d_syn, m.d_join, m.d_preamble, m.d_announce) == (200,) * 5
        with pytest.raises(ValueError):
            ControlMessageSizes(d_adv=-1)


class TestTxIntra:
    def test_zero_data(self):
        assert tx_intra(0, 350, 10, P) == 0.0

    def test_degenerate_area(self):
        assert tx_intra(1, 0, 10, P) == pytest.approx(40e-9, rel=1e-12)

    def test_derived_value(self):
        # 4000*40e-9 + 4000*9e-12*350^2/(2*pi*10), frozen from the oracle
        assert tx_intra(4000, 350, 10, P) == pytest.approx(2.3018732990352585e-4, rel=1e-12)

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError):
            tx_intra(4000, 350, 0, P)


class TestTxToBs:
    def test_zero_data(self):
        assert tx_to_bs(0, 100, P) == 0.0

    def test_zero_distance(self):
        assert tx_to_bs(4000, 0, P) == pytest.approx(1.6e-4, rel=1e-12)

    def test_derived_value(self):
        # 4000*40e-9 + 4000*1.1e-15*100^4
        assert tx_to_bs(4000, 100, P) == pytest.approx(6.0e-4, rel=1e-12)


class TestRxCluster:
    def test_empty_cluster(self):
        assert rx_cluster(4000, 10, 10, P) == 0.0

    def test_zero_data(self):
        assert rx_cluster(0, 190, 10, P) == 0.0

    def test_derived_value(self):
        # 4000*40e-9*18
        assert rx_cluster(4000, 190, 10, P) == pytest.approx(2.88e-3, rel=1e-12)

    def test_real_division(self):
        # S/C must not be integer-truncated: S=15, C=10 -> 0.5 members
        assert rx_cluster(1000, 15, 10, P) == pytest.approx(1000 * 40e-9 * 0.5, rel=1e-12)

    def test_fewer_nodes_than_clusters_rejected(self):
        with pytest.raises(ValueError):
            rx_cluster(4000, 5, 10, P)


class TestSchedEnergy:
    def test_empty_cluster(self):
        assert sched_energy(4000, 10, 10, P) == 0.0

    def test_zero_data(self):
        assert sched_energy(0, 190, 10, P) == 0.0

    def test_derived_value(self):
        assert sched_energy(4000, 190, 10, P) == pytest.approx(2.88e-3, rel=1e-12)


class TestSetupEnergyChn:
    def test_empty_messages(self):
        m = ControlMessageSizes(0, 0, 0, 0, 0)
        assert setup_energy_chn(m, 350, 190, 10, P) == 0.0

    def test_tx_electronics_only(self):
        # A=0 and S=C leave only the raw radio cost of three transmissions
        m = ControlMessageSizes()
        assert setup_energy_chn(m, 0, 10, 10, P) == pytest.approx(2.4e-5, rel=1e-12)

    def test_derived_sum_of_six_terms(self):
        m = ControlMessageSizes()
        expected = sum(
            oracle_tx_intra(s, 350, 10) + oracle_rx_cluster(s, 190, 10) for s in (200, 200, 200)
        )
        assert expected == pytest.approx(4.665280994855289e-4, rel=1e-12)
        assert setup_energy_chn(m, 350, 190, 10, P) == pytest.approx(expected, rel=1e-12)


class TestSetupEnergyNchn:
    def test_empty_messages(self):
        m = ControlMessageSizes(0, 0, 0, 0, 0)
        assert setup_energy_nchn(m, 350, 10, P) == 0.0

    def test_single_receive(self):
        m = ControlMessageSizes(d_adv=200, d_syn=0, d_join=0)
        assert setup_energy_nchn(m, 350, 10, P) == pytest.approx(8e-6, rel=1e-12)

    def test_derived_three_terms(self):
        m = ControlMessageSizes()
        expected = 200 * P.e_radio + oracle_tx_intra(200, 350, 10) + 200 * P.e_radio
        assert expected == pytest.approx(2.7509366495176293e-5, rel=1e-12)
        assert setup_energy_nchn(m, 350, 10, P) == pytest.approx(expected, rel=1e-12)


class TestFrameConsumptionChn:
    def test_empty_cluster_forwards_own_sample(self):
        # no members and S=C: only the base-station forward remains
        assert frame_consumption_chn(0, 4000, 0, 10, 10, P) == pytest.approx(1.6e-4, rel=1e-12)

    def test_all_zero(self):
        assert frame_consumption_chn(0, 0, 0, 10, 10, P) == 0.0

    def test_derived_four_term_sum(self):
        expected = (
            18 * 4000 * P.e_radio
            + 18 * 4000 * P.e_agg
            + oracle_sched(4000, 190, 10)
            + oracle_tx_to_bs(4000, 100)
        )
        assert expected == pytest.approx(6.792e-3, rel=1e-12)
        got = frame_consumption_chn(18, 4000, 100, 190, 10, P)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_arrays_give_one_cost_per_head(self):
        members = np.array([0, 18, 5])
        r_bs = np.array([0.0, 100.0, 250.0])
        got = frame_consumption_chn(members, 4000, r_bs, 190, 10, P)
        for n, r, cost in zip(members, r_bs, got):
            assert cost == pytest.approx(frame_consumption_chn(int(n), 4000, float(r), 190, 10, P),
                                         rel=1e-12)
        with pytest.raises(ValueError):
            frame_consumption_chn(np.array([3, -1]), 4000, r_bs[:2], 190, 10, P)


class TestFrameConsumptionNchn:
    def test_electronics_only(self):
        assert frame_consumption_nchn(4000, 0, 10, P) == pytest.approx(1.6e-4, rel=1e-12)

    def test_derived_three_packets(self):
        # a member sends one packet a frame: three frames cost three charges
        expected = 3 * oracle_tx_intra(4000, 350, 10)
        assert expected == pytest.approx(6.905619897105775e-4, rel=1e-12)
        assert 3 * frame_consumption_nchn(4000, 350, 10, P) == pytest.approx(expected, rel=1e-12)


class TestProperties:
    def test_oracle_agreement_on_random_draws(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            d = float(rng.integers(1, 10_000))
            a = float(rng.uniform(0, 1000))
            r = float(rng.uniform(0, 500))
            c = int(rng.integers(1, 40))
            s = int(rng.integers(c, 400))
            p = EnergyParams(
                e_radio=float(rng.uniform(0, 1e-7)),
                e_amp=float(rng.uniform(0, 1e-10)),
                e_mh=float(rng.uniform(0, 1e-13)),
                e_sched=float(rng.uniform(0, 1e-7)),
                e_agg=float(rng.uniform(0, 1e-7)),
            )
            assert tx_intra(d, a, c, p) == pytest.approx(oracle_tx_intra(d, a, c, p), rel=1e-12)
            assert tx_to_bs(d, r, p) == pytest.approx(oracle_tx_to_bs(d, r, p), rel=1e-12)
            assert rx_cluster(d, s, c, p) == pytest.approx(oracle_rx_cluster(d, s, c, p), rel=1e-12)
            assert sched_energy(d, s, c, p) == pytest.approx(oracle_sched(d, s, c, p), rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(99)
        m = ControlMessageSizes()
        for _ in range(100):
            d = float(rng.uniform(0, 1e5))
            a = float(rng.uniform(0, 1e3))
            r = float(rng.uniform(0, 1e3))
            c = int(rng.integers(1, 30))
            s = int(rng.integers(c, 500))
            n = int(rng.integers(0, 50))
            assert tx_intra(d, a, c, P) >= 0
            assert tx_to_bs(d, r, P) >= 0
            assert rx_cluster(d, s, c, P) >= 0
            assert sched_energy(d, s, c, P) >= 0
            assert setup_energy_chn(m, a, s, c, P) >= 0
            assert setup_energy_nchn(m, a, c, P) >= 0
            assert frame_consumption_chn(n, d, r, s, c, P) >= 0
            assert frame_consumption_nchn(d, a, c, P) >= 0

    def test_linear_in_data_size(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = float(rng.uniform(1, 1e4))
            a = float(rng.uniform(0, 1e3))
            r = float(rng.uniform(0, 1e3))
            c = int(rng.integers(1, 30))
            s = int(rng.integers(c, 500))
            assert tx_intra(2 * d, a, c, P) == pytest.approx(2 * tx_intra(d, a, c, P), rel=1e-12)
            assert tx_to_bs(2 * d, r, P) == pytest.approx(2 * tx_to_bs(d, r, P), rel=1e-12)
            assert rx_cluster(2 * d, s, c, P) == pytest.approx(2 * rx_cluster(d, s, c, P), rel=1e-12)
            assert sched_energy(2 * d, s, c, P) == pytest.approx(
                2 * sched_energy(d, s, c, P), rel=1e-12
            )

    def test_monotonicity(self):
        # tx_to_bs non-decreasing in r
        rs = np.linspace(0, 400, 50)
        costs = [tx_to_bs(4000, r, P) for r in rs]
        assert all(b >= a for a, b in zip(costs, costs[1:]))
        # tx_intra non-decreasing in A ...
        sides = np.linspace(0, 800, 50)
        costs = [tx_intra(4000, a, 10, P) for a in sides]
        assert all(b >= a for a, b in zip(costs, costs[1:]))
        # ... and non-increasing in C
        costs = [tx_intra(4000, 350, c, P) for c in range(1, 40)]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
