import math

import numpy as np
import pytest

from chsim.arena import (
    ArenaConfig,
    MOBILITY,
    _reflect,
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


class TestMobility:
    def test_zero_speed_is_identity(self):
        pos = place_nodes(ArenaConfig(node_count=20, seed=1))
        rng = substream(1, MOBILITY)
        moved = step_mobility(pos, 350.0, 0.0, rng, 3)
        assert moved.shape == (3, 20, 2)
        assert all(np.array_equal(frame, pos) for frame in moved)

    def test_displacement_norm(self):
        pos = np.full((50, 2), 175.0)  # center: no reflection for a 2 m step
        rng = substream(3, MOBILITY)
        moved = step_mobility(pos, 350.0, 2.0, rng, 1)[0]
        norms = np.hypot(moved[:, 0] - 175.0, moved[:, 1] - 175.0)
        assert np.allclose(norms, 2.0)

    def test_boundary_reflection_hand_trace(self):
        # 349 + 2 = 351 reflects at the 350 wall back to 349
        pos = np.array([[349.0, 100.0]])

        class RightwardRng:
            def uniform(self, low, high, size=None):
                return np.zeros(size)  # angle 0: straight +x

        moved = step_mobility(pos, 350.0, 2.0, RightwardRng(), 1)[0]
        assert moved[0, 0] == pytest.approx(349.0, abs=1e-12)
        assert moved[0, 1] == pytest.approx(100.0, abs=1e-12)

    def test_stays_in_arena(self):
        pos = place_nodes(ArenaConfig(node_count=100, seed=5))
        rng = substream(5, MOBILITY)
        path = step_mobility(pos, 350.0, 10.0, rng, 200)
        assert np.all(path >= 0) and np.all(path <= 350)

    def test_seed_determinism(self):
        pos = place_nodes(ArenaConfig(node_count=30, seed=9))
        a = step_mobility(pos, 350.0, 2.0, substream(9, MOBILITY), 4)
        b = step_mobility(pos, 350.0, 2.0, substream(9, MOBILITY), 4)
        assert np.array_equal(a, b)

    def test_path_is_frame_by_frame_steps(self):
        # one block of angles is the same stream as one draw per frame
        pos = place_nodes(ArenaConfig(node_count=30, seed=4))
        path = step_mobility(pos, 350.0, 40.0, substream(4, MOBILITY), 6)
        rng = substream(4, MOBILITY)
        for frame in path:
            pos = step_mobility(pos, 350.0, 40.0, rng, 1)[0]
            assert np.array_equal(frame, pos)

    def test_path_equals_folding_every_coordinate_every_frame(self):
        # steps that land exactly on the walls 0 and side_a, then cross them
        pos = np.array([[349.0, 100.0], [1.0, 200.0], [175.0, 1.0], [175.0, 349.0]])
        theta = np.array([
            [0.0, math.pi, 1.5 * math.pi, 0.5 * math.pi],
            [0.0, math.pi, 1.5 * math.pi, 0.5 * math.pi],
            [math.pi, 0.0, 0.5 * math.pi, 1.5 * math.pi],
        ])

        class ScriptedRng:
            def uniform(self, low, high, size=None):
                assert size == theta.shape
                return theta

        path = step_mobility(pos, 350.0, 1.0, ScriptedRng(), len(theta))
        assert (path[0, 0, 0], path[0, 1, 0], path[0, 2, 1], path[0, 3, 1]) == (350.0, 0.0, 0.0, 350.0)
        for row, angles in zip(path, theta):
            step = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            pos = _reflect(pos + step, 350.0)
            assert np.array_equal(row, pos)
        assert np.all(path >= 0) and np.all(path <= 350)

    def test_negative_speed_rejected(self):
        pos = np.zeros((1, 2))
        with pytest.raises(ValueError):
            step_mobility(pos, 350.0, -1.0, substream(0, MOBILITY), 1)
