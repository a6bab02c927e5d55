import math

import numpy as np
import pytest

from chsim.arena import (
    ArenaConfig,
    MOBILITY,
    distance,
    place_nodes,
    step_mobility,
    substream,
)


class TestPlacement:
    def test_single_node_in_arena(self):
        pos = place_nodes(ArenaConfig(node_count=1, seed=3))
        assert pos.shape == (1, 2)
        assert np.all(pos >= 0) and np.all(pos <= 350)

    def test_seed_determinism(self):
        cfg = ArenaConfig(node_count=190, seed=42)
        a = place_nodes(cfg)
        b = place_nodes(cfg)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = place_nodes(ArenaConfig(node_count=50, seed=1))
        b = place_nodes(ArenaConfig(node_count=50, seed=2))
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers_mean(self):
        pos = place_nodes(ArenaConfig(node_count=10_000, seed=7))
        assert abs(pos[:, 0].mean() - 175.0) < 350 * 0.02
        assert abs(pos[:, 1].mean() - 175.0) < 350 * 0.02

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ArenaConfig(side_a=0)
        with pytest.raises(ValueError):
            ArenaConfig(node_count=0)
        for bs in ((math.nan, 0.0), (175.0, math.inf), (175.0,), ("1", 2), 5):
            with pytest.raises(ValueError):
                ArenaConfig(bs_position=bs)


class TestDistance:
    def test_zero(self):
        assert distance((0, 0), (0, 0)) == 0.0

    def test_pythagorean_triple(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(-100, 100, 2)
            b = rng.uniform(-100, 100, 2)
            expected = math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
            assert distance(a, b) == pytest.approx(expected, rel=1e-12)
            assert distance(a, b) == distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = rng.uniform(0, 350, (3, 2))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestMobility:
    def test_zero_speed_is_identity(self):
        pos = place_nodes(ArenaConfig(node_count=20, seed=1))
        rng = substream(1, MOBILITY)
        moved = step_mobility(pos, 350.0, 0.0, rng)
        assert np.array_equal(moved, pos)
        assert moved is not pos

    def test_displacement_norm(self):
        pos = np.full((50, 2), 175.0)  # center: no reflection for a 2 m step
        rng = substream(3, MOBILITY)
        moved = step_mobility(pos, 350.0, 2.0, rng)
        norms = np.hypot(moved[:, 0] - 175.0, moved[:, 1] - 175.0)
        assert np.allclose(norms, 2.0)

    def test_boundary_reflection_hand_trace(self):
        # 349 + 2 = 351 reflects at the 350 wall back to 349
        pos = np.array([[349.0, 100.0]])

        class RightwardRng:
            def uniform(self, low, high, size=None):
                return np.zeros(size)  # angle 0: straight +x

        moved = step_mobility(pos, 350.0, 2.0, RightwardRng())
        assert moved[0, 0] == pytest.approx(349.0, abs=1e-12)
        assert moved[0, 1] == pytest.approx(100.0, abs=1e-12)

    def test_stays_in_arena(self):
        pos = place_nodes(ArenaConfig(node_count=100, seed=5))
        rng = substream(5, MOBILITY)
        for _ in range(200):
            pos = step_mobility(pos, 350.0, 10.0, rng)
            assert np.all(pos >= 0) and np.all(pos <= 350)

    def test_seed_determinism(self):
        pos = place_nodes(ArenaConfig(node_count=30, seed=9))
        a = step_mobility(pos, 350.0, 2.0, substream(9, MOBILITY))
        b = step_mobility(pos, 350.0, 2.0, substream(9, MOBILITY))
        assert np.array_equal(a, b)

    def test_negative_speed_rejected(self):
        pos = np.zeros((1, 2))
        with pytest.raises(ValueError):
            step_mobility(pos, 350.0, -1.0, substream(0, MOBILITY))
