import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from chsim import arena
from chsim.arena import (
    ArenaConfig,
    MOBILITY,
    place_nodes,
    step_mobility,
    substream,
)

from reference_engine import _reflect, step_mobility_rows

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _move(pos, side_a, speed, rng, frames):
    """``step_mobility`` over ``frames`` frames of steps at ``speed``,
    whose angles ``rng`` draws as one ``(frames, S)`` block, as
    ``run()``'s headings draw them."""
    pos = np.asarray(pos, dtype=float)
    steps = np.empty((frames, *pos.shape))
    arena._draw_steps(rng, speed, steps)
    return step_mobility(pos, side_a, steps)


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
        moved = _move(pos, 350.0, 0.0, rng, 3)
        assert moved.shape == (3, 20, 2)
        assert all(np.array_equal(frame, pos) for frame in moved)

    def test_displacement_norm(self):
        pos = np.full((50, 2), 175.0)  # center: no reflection for a 2 m step
        rng = substream(3, MOBILITY)
        moved = _move(pos, 350.0, 2.0, rng, 1)[0]
        norms = np.hypot(moved[:, 0] - 175.0, moved[:, 1] - 175.0)
        assert np.allclose(norms, 2.0)

    def test_boundary_reflection_hand_trace(self):
        # 349 + 2 = 351 reflects at the 350 wall back to 349
        pos = np.array([[349.0, 100.0]])

        class RightwardRng:
            def uniform(self, low, high, size=None):
                return np.zeros(size)  # angle 0: straight +x

        moved = _move(pos, 350.0, 2.0, RightwardRng(), 1)[0]
        assert moved[0, 0] == pytest.approx(349.0, abs=1e-12)
        assert moved[0, 1] == pytest.approx(100.0, abs=1e-12)

    def test_stays_in_arena(self):
        pos = place_nodes(ArenaConfig(node_count=100, seed=5))
        rng = substream(5, MOBILITY)
        path = _move(pos, 350.0, 10.0, rng, 200)
        assert np.all(path >= 0) and np.all(path <= 350)

    def test_seed_determinism(self):
        pos = place_nodes(ArenaConfig(node_count=30, seed=9))
        a = _move(pos, 350.0, 2.0, substream(9, MOBILITY), 4)
        b = _move(pos, 350.0, 2.0, substream(9, MOBILITY), 4)
        assert np.array_equal(a, b)

    def test_path_is_frame_by_frame_steps(self):
        # one block of angles is the same stream as one draw per frame
        pos = place_nodes(ArenaConfig(node_count=30, seed=4))
        path = _move(pos, 350.0, 40.0, substream(4, MOBILITY), 6)
        rng = substream(4, MOBILITY)
        for frame in path:
            pos = _move(pos, 350.0, 40.0, rng, 1)[0]
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

        path = _move(pos, 350.0, 1.0, ScriptedRng(), len(theta))
        assert (path[0, 0, 0], path[0, 1, 0], path[0, 2, 1], path[0, 3, 1]) == (350.0, 0.0, 0.0, 350.0)
        for row, angles in zip(path, theta):
            step = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            pos = _reflect(pos + step, 350.0)
            assert np.array_equal(row, pos)
        assert np.all(path >= 0) and np.all(path <= 350)


class StraightFirstNode:
    """The angles of a seeded generator, except that node 0 always heads
    along +x, so its x coordinate meets the wall at a frame of our choice."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high, size=None):
        theta = self.rng.uniform(low, high, size=size)
        theta[:, 0] = 0.0
        return theta


def _wall_cases(draw_seed, s, side_a, speed, frames, edges):
    """Positions in the arena, a share of their coordinates exactly on 0 or
    ``side_a``, and node 0 one step short of the wall ``side_a`` at the
    block's last frame when the block is short enough to walk it there."""
    gen = np.random.default_rng(draw_seed)
    pos = gen.uniform(0.0, side_a, size=(s, 2))
    if edges:
        pos[gen.random((s, 2)) < 0.2] = 0.0
        pos[gen.random((s, 2)) < 0.2] = side_a
    start = side_a - speed * (frames - 0.5)
    if start >= 0.0:
        pos[0, 0] = start  # its last step, and only that one, crosses side_a
    return pos


@settings(max_examples=200)
@given(
    s=st.integers(1, 200),
    side_a=st.floats(math.log10(0.3), 3.0).map(lambda e: 10.0**e),
    speed=st.floats(-3.0, math.log10(800.0)).map(lambda e: 10.0**e),
    frames=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    edges=st.booleans(),
)
def test_mobility_matches_the_row_loop_byte_for_byte(s, side_a, speed, frames, seed, edges):
    # speeds from 1 mm to 800 m a frame put blocks on both sides of the
    # walk / row-fold choice
    pos = _wall_cases(seed, s, side_a, speed, frames, edges)
    got = _move(pos, side_a, speed, StraightFirstNode(seed), frames)
    want = step_mobility_rows(pos, side_a, speed, StraightFirstNode(seed), frames)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("speed, redo", [(1.0, "_walk"), (800.0, "_fold_rows")])
def test_walk_and_row_fold_each_match_the_row_loop(speed, redo):
    # 190 nodes over 80 frames, as a block of run(): at 1 m a frame few
    # coordinates reach a wall and are walked, at 800 m all are folded by row
    frames = 80
    pos = _wall_cases(1, 190, 350.0, speed, frames, edges=False)
    with mock.patch.object(arena, redo, wraps=getattr(arena, redo)) as spy:
        got = _move(pos, 350.0, speed, StraightFirstNode(2), frames)
    assert spy.call_count == 1
    want = step_mobility_rows(pos, 350.0, speed, StraightFirstNode(2), frames)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cells_per_row", [0, 10**9])
def test_fold_in_the_last_row_alone(cells_per_row):
    # node 0 stays inside until the block's last step takes it past side_a
    frames = 40
    pos = _wall_cases(3, 5, 100.0, 2.0, frames, edges=False)
    with mock.patch.object(arena, "_WALK_CELLS_PER_ROW", cells_per_row):
        got = _move(pos, 100.0, 2.0, StraightFirstNode(4), frames)
    want = step_mobility_rows(pos, 100.0, 2.0, StraightFirstNode(4), frames)
    assert got[-2, 0, 0] < 100.0 < pos[0, 0] + 2.0 * frames
    assert got[-1, 0, 0] == 200.0 - (pos[0, 0] + 2.0 * frames)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("speed", [1e307, 1.7e308])
def test_speeds_near_the_float_limit_are_exact_and_quiet(speed, tmp_path):
    # the accumulated block overflows only in rows after a coordinate's
    # first step out, which are redone: no warning, and the row loop's bytes
    frames = 80
    pos = _wall_cases(1, 190, 350.0, speed, frames, edges=False)
    got = _move(pos, 350.0, speed, np.random.default_rng(4), frames)
    want = step_mobility_rows(pos, 350.0, speed, np.random.default_rng(4), frames)
    assert got.tobytes() == want.tobytes()
    cli = "import sys; from chsim.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["run", "--mobility", repr(speed), "--frames", str(frames), "--out", str(tmp_path / "trace.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(arena.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", cli, *argv], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
