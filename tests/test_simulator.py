"""Frame loop: depletion, deaths, packet accounting, determinism."""

import bisect
import math
import re

import numpy as np
import pytest

from chsim.arena import place_nodes
from chsim.config import (
    ArenaConfig,
    ControlMessageSizes,
    EnergyParams,
    ScenarioConfig,
    SimConfig,
    config_from_dict,
    config_to_dict,
)
from chsim.energy import (
    frame_consumption_chn,
    frame_consumption_nchn,
    tx_to_bs,
)
from chsim import simulator
from chsim.simulator import SimTrace, network_lifetime, run


def small_cfg(**overrides):
    defaults = dict(
        arena=ArenaConfig(node_count=40, seed=3),
        cluster_count=4,
        max_frames=300,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def synthetic_trace(alive, packets=None):
    alive = np.asarray(alive)
    n = len(alive)
    zeros = np.zeros(n, dtype=int)
    return SimTrace(
        config=SimConfig(),
        termination="max-frames",
        alive=alive,
        packets_cum=np.asarray(packets) if packets is not None else zeros,
        chn_count=zeros,
        head_change_frames=(),
        head_change_ids=(),
        reelections=(),
        final_residual=np.array([]),
        final_consumed=np.array([]),
        initial_energy_per_node=np.array([]),
    )


class TestScenarioConfig:
    def test_saturated_kind_forces_full_rates(self):
        scen = ScenarioConfig(kind="scenario1", event_probability=0.2, duty_cycle=0.4)
        assert scen.event_probability == 1.0
        assert scen.duty_cycle == 1.0

    def test_random_kind_defaults(self):
        scen = ScenarioConfig(kind="scenario2")
        assert scen.event_probability == 0.3
        assert scen.duty_cycle == 0.5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="scenario3")
        with pytest.raises(ValueError):
            ScenarioConfig(kind="scenario2", event_probability=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(kind="scenario2", duty_cycle=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(d_size=0)
        with pytest.raises(ValueError):
            ScenarioConfig(frames_per_round=0)


class TestSimConfig:
    def test_defaults_are_valid(self):
        SimConfig()
        SimConfig(initial_energy=np.float64(3.5))  # a float subclass, exported as a float

    def test_rejects_bad_fields(self):
        cases = [
            # range checks name class and field, and give the value
            (lambda: SimConfig(policy="mystery"), "SimConfig.policy must be one of ('dchne', 'leach', 'rrch'), got 'mystery'"),
            (lambda: SimConfig(cluster_count=0), "SimConfig.cluster_count must be >= 1, got 0"),
            (
                lambda: SimConfig(arena=ArenaConfig(node_count=5), cluster_count=6),
                "SimConfig.cluster_count must be <= arena.node_count (5), got 6",
            ),
            (lambda: SimConfig(max_frames=-1), "SimConfig.max_frames must be >= 0, got -1"),
            (lambda: SimConfig(initial_energy=0.0), "SimConfig.initial_energy must be > 0, got 0.0"),
            (lambda: SimConfig(mobility_speed=-1.0), "SimConfig.mobility_speed must be >= 0, got -1.0"),
            (lambda: ArenaConfig(side_a=0), "ArenaConfig.side_a must be > 0, got 0"),
            (lambda: ArenaConfig(node_count=0), "ArenaConfig.node_count must be >= 1, got 0"),
            (lambda: EnergyParams(e_radio=-1.0), "EnergyParams.e_radio must be >= 0, got -1.0"),
            (lambda: ControlMessageSizes(d_adv=-1), "ControlMessageSizes.d_adv must be >= 0, got -1"),
            (
                lambda: ScenarioConfig(kind="scenario3"),
                "ScenarioConfig.kind must be one of ('scenario1', 'scenario2'), got 'scenario3'",
            ),
            (
                lambda: ScenarioConfig(kind="scenario2", duty_cycle=0.0),
                "ScenarioConfig.duty_cycle must be in (0, 1], got 0.0",
            ),
            # an arena corner whose uplink distance to the fourth power overflows a float
            (lambda: ArenaConfig(side_a=1e200), "ArenaConfig.side_a/bs_position"),
            (lambda: ArenaConfig(bs_position=(1e80, 0.0)), "ArenaConfig.side_a/bs_position"),
            # field types are checked at construction; the message names class and field
            (lambda: SimConfig(max_frames=1.5), "SimConfig.max_frames"),
            (lambda: SimConfig(cluster_count=2.5, policy="leach"), "SimConfig.cluster_count"),
            (lambda: SimConfig(initial_energy="3"), "SimConfig.initial_energy"),
            (lambda: SimConfig(record_residuals=1), "SimConfig.record_residuals"),
            (lambda: SimConfig(arena=5), "SimConfig.arena"),
            (lambda: ScenarioConfig(frames_per_round=2.5), "ScenarioConfig.frames_per_round"),
            (lambda: ScenarioConfig(d_size=math.inf), "ScenarioConfig.d_size"),
            (lambda: ArenaConfig(node_count=10.5), "ArenaConfig.node_count"),
            (lambda: ArenaConfig(seed=1.5), "ArenaConfig.seed"),
            (lambda: ArenaConfig(seed=-1), "ArenaConfig.seed"),
            (lambda: ArenaConfig(bs_position=(True, 0)), "ArenaConfig.bs_position"),
            (lambda: ArenaConfig(node_count=np.int64(20)), "ArenaConfig.node_count"),
            (lambda: ControlMessageSizes(d_adv=math.inf), "ControlMessageSizes.d_adv"),
            # integers that enter float arithmetic must fit in a float
            (lambda: ControlMessageSizes(d_join=10**400), "ControlMessageSizes.d_join must be <= 1.798e+308"),
            (lambda: ScenarioConfig(d_size=10**400), "ScenarioConfig.d_size must be <= 1.798e+308"),
            (lambda: EnergyParams(e_amp=math.nan), "EnergyParams.e_amp"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()

    def test_dict_round_trip(self):
        cfg = small_cfg(policy="leach", scenario=ScenarioConfig(kind="scenario2"))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_dict_rejects_unknown_fields(self):
        data = config_to_dict(SimConfig())
        data["voltage"] = 12
        with pytest.raises(ValueError):
            config_from_dict(data)
        data = config_to_dict(SimConfig())
        data["arena"]["shape"] = "hex"
        with pytest.raises(ValueError):
            config_from_dict(data)
        for not_an_object in ([1], 5, "ab"):
            with pytest.raises(ValueError, match="SimConfig must be given as an object"):
                config_from_dict(not_an_object)


class TestRun:
    def test_zero_frames_changes_nothing(self):
        trace = run(small_cfg(max_frames=0))
        assert len(trace) == 0
        assert trace.head_change_frames == ()
        assert trace.reelections == ()
        assert trace.termination == "max-frames"
        np.testing.assert_array_equal(trace.final_residual, trace.initial_energy_per_node)

    def test_single_node_dies_at_hand_computed_frame(self):
        arena = ArenaConfig(node_count=1, seed=13)
        cfg = SimConfig(
            arena=arena,
            msgs=ControlMessageSizes(0, 0, 0, 0, 0),
            cluster_count=1,
            max_frames=100_000,
        )
        # sole node is its own head: no members, no scheduling traffic,
        # so each frame costs exactly one base-station forward
        pos = place_nodes(arena)[0]
        r_bs = math.hypot(pos[0] - arena.bs_position[0], pos[1] - arena.bs_position[1])
        per_frame = tx_to_bs(cfg.scenario.d_size, r_bs, cfg.energy)
        expected_frames = math.ceil(cfg.initial_energy / per_frame)
        trace = run(cfg)
        assert trace.termination == "all-dead"
        assert len(trace) == expected_frames
        assert trace.packets_cum[-1] == expected_frames
        assert network_lifetime(trace, 1) == expected_frames - 1

    def test_alive_counts_never_increase(self):
        for policy in ("dchne", "leach", "rrch"):
            trace = run(small_cfg(policy=policy))
            assert np.all(np.diff(trace.alive) <= 0)
            assert trace.alive[0] == 40

    def test_packet_counts_never_decrease(self):
        trace = run(small_cfg())
        assert np.all(np.diff(trace.packets_cum) >= 0)

    def test_energy_books_balance(self):
        trace = run(small_cfg())
        np.testing.assert_allclose(
            trace.initial_energy_per_node,
            trace.final_residual + trace.final_consumed,
            rtol=1e-12,
        )

    def test_identical_configs_give_identical_traces(self):
        a, b = run(small_cfg()), run(small_cfg())
        np.testing.assert_array_equal(a.alive, b.alive)
        np.testing.assert_array_equal(a.packets_cum, b.packets_cum)
        np.testing.assert_array_equal(a.chn_count, b.chn_count)
        np.testing.assert_array_equal(a.final_residual, b.final_residual)
        assert a.head_change_ids == b.head_change_ids
        assert a.reelections == b.reelections
        assert a.termination == b.termination

    def test_saturated_scenario_delivers_at_least_as_much(self):
        s1 = run(small_cfg(max_frames=400))
        s2 = run(small_cfg(max_frames=400, scenario=ScenarioConfig(kind="scenario2")))
        shared = min(len(s1), len(s2))
        assert np.all(s1.packets_cum[:shared] >= s2.packets_cum[:shared])

    def test_dead_head_replaced_mid_round_under_default_policy(self):
        # A small battery forces heads to burn out between round boundaries.
        trace = run(small_cfg(initial_energy=0.25))
        assert len(trace.reelections) > 0
        fpr = trace.config.scenario.frames_per_round
        for frame, cluster, winner in trace.reelections:
            assert frame % fpr != 0
            assert cluster >= 0

    def test_baselines_never_replace_heads_mid_round(self):
        for policy in ("leach", "rrch"):
            assert run(small_cfg(policy=policy)).reelections == ()

    def test_runs_to_extinction_when_frames_allow(self):
        trace = run(small_cfg(max_frames=100_000))
        assert trace.termination == "all-dead"
        assert trace.alive[-1] == 0
        assert np.all(trace.final_residual == 0.0)

    def test_mobility_is_deterministic_and_changes_outcome(self):
        still = run(small_cfg(max_frames=150))
        moving1 = run(small_cfg(max_frames=150, mobility_speed=5.0))
        moving2 = run(small_cfg(max_frames=150, mobility_speed=5.0))
        np.testing.assert_array_equal(moving1.packets_cum, moving2.packets_cum)
        np.testing.assert_array_equal(moving1.final_residual, moving2.final_residual)
        assert not np.array_equal(still.final_residual, moving1.final_residual)

    def test_records_mirror_columns(self):
        trace = run(small_cfg(arena=ArenaConfig(node_count=12, seed=1),
                              cluster_count=2, max_frames=50, record_residuals=True))
        assert len(trace.packets_cum) == len(trace) == 50
        for column in (trace.alive, trace.packets_cum, trace.chn_count):
            assert column.dtype == np.int64 and len(column) == 50
        assert trace.residual_log.shape == (len(trace), 12)
        assert trace.residual_log.dtype == np.float64
        for i in (0, 17, len(trace) - 1):
            residuals = trace.residual_log[i]
            assert trace.alive[i] == np.count_nonzero(residuals > 0.0)
            assert 0 < trace.packets_cum[i] <= 12 * (i + 1)
            # the head set in force at frame i, from the trace's change points
            slot = bisect.bisect_right(trace.head_change_frames, i) - 1
            heads = trace.head_change_ids[slot] if slot >= 0 else ()
            assert len(heads) == trace.chn_count[i]
            assert all(residuals[h] > 0.0 for h in heads)

    @pytest.mark.parametrize("scenario, speed, flag_rows, charge_rows", [
        ("scenario2", 0.0, 20, 20),  # drawn flags: one row per frame
        ("scenario1", 0.0, 1, 1),  # alike flags and still nodes: one row for 20 frames
        ("scenario1", 1.0, 1, 20),  # alike flags, but the heads' uplinks move every frame
    ], ids=["scenario2", "scenario1-still", "scenario1-mobile"])
    def test_frame_debits_are_the_energy_module_formulas(self, monkeypatch, scenario, speed,
                                                         flag_rows, charge_rows):
        # Committed frames and death frames alike take their charges from
        # one helper; record what it returns, and where the nodes moved.
        calls, paths = [], []
        original = simulator._frame_charges
        original_step = simulator.step_mobility

        def recording_charges(net, alive, heads, awake, sends, uplink, *args):
            assert np.array_equal(alive, net.alive)  # the mask of the network as it stands
            charges, delivered = original(net, alive, heads, awake, sends, uplink, *args)
            state = (net.head.copy(), alive, net.cluster.copy(), net.consumed.copy())
            calls.append((net, state, awake, sends, uplink, charges, delivered))
            return charges, delivered

        def recording_step(*args):
            paths.append(original_step(*args))
            return paths[-1]

        monkeypatch.setattr(simulator, "_frame_charges", recording_charges)
        monkeypatch.setattr(simulator, "step_mobility", recording_step)
        cfg = SimConfig(scenario=ScenarioConfig(kind=scenario), mobility_speed=speed,
                        max_frames=20)
        trace = run(cfg)
        # One round and no death: after the election, one segment of 20 frames.
        assert trace.alive[-1] == cfg.arena.node_count
        [(net, (head, alive, cluster, consumed), awake, sends, uplink, charges,
          delivered)] = calls
        s = len(net)
        assert awake.shape == sends.shape == (flag_rows, s)
        assert charges.shape == (charge_rows, s) and delivered.shape == (flag_rows,)
        heads = np.nonzero(head & alive)[0]
        # nodes that stand still: one uplink per head; moving ones: one per head and frame
        assert uplink.shape == ((20, len(heads)) if speed else (len(heads),))
        awake, sends, charges = (np.broadcast_to(a, (20, s)) for a in (awake, sends, charges))
        d, c, params = cfg.scenario.d_size, cfg.cluster_count, cfg.energy
        bs = np.asarray(cfg.arena.bs_position, dtype=float)
        member_cost = frame_consumption_nchn(d, cfg.arena.side_a, c, params)
        per_frame = np.diff(trace.packets_cum, prepend=0)
        for frame in range(20):
            where = paths[0][frame] if speed else net.positions
            r_bs = np.hypot(where[:, 0] - bs[0], where[:, 1] - bs[1])
            members = np.nonzero(alive & ~head & sends[frame])[0]
            assert np.all(charges[frame, members] == member_cost)
            inbound = np.array([np.count_nonzero(cluster[members] == cluster[h]) for h in heads])
            fwd = awake[frame, heads] & ((inbound > 0) | sends[frame, heads])
            expected = frame_consumption_chn(inbound[fwd], d, r_bs[heads[fwd]], s, c, params)
            assert np.all(charges[frame, heads[fwd]] == expected)
            idle = np.ones(s, dtype=bool)
            idle[members] = idle[heads[fwd]] = False
            assert np.all(charges[frame, idle] == 0.0)
            packets = inbound * awake[frame, heads] + sends[frame, heads]
            assert delivered[frame % flag_rows] == packets.sum() == per_frame[frame]
        # the run charged exactly these costs, frame after frame
        np.testing.assert_array_equal(
            trace.final_consumed, np.add.accumulate(np.vstack([consumed, charges]))[-1]
        )

    def test_invalid_config_fails_before_any_frame(self):
        with pytest.raises(ValueError):
            run(small_cfg(policy="nope"))


class TestNetworkLifetime:
    def test_threshold_zero_is_never_crossed(self):
        assert network_lifetime(synthetic_trace([5, 4, 0, 0]), 0) is None

    def test_first_death_frame(self):
        alive = [9, 9, 9, 9, 9, 9, 9, 8, 8, 5]
        assert network_lifetime(synthetic_trace(alive), 9) == 7

    def test_matches_linear_scan_on_random_curves(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            steps = rng.integers(0, 4, size=30)
            curve = np.maximum(20 - np.cumsum(steps), 0)
            trace = synthetic_trace(curve)
            threshold = int(rng.integers(0, 22))
            expected = None
            for frame, value in enumerate(curve):
                if value < threshold:
                    expected = frame
                    break
            assert network_lifetime(trace, threshold) == expected

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            network_lifetime(synthetic_trace([3]), -1)
