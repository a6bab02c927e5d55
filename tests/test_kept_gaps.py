"""A static run measures its nodes once, under a size bound.

A run whose nodes stand still keeps the ``(S, S)`` squared distances
between its nodes (``Network.keep_gaps``) while ``S * S`` is at most
``simulator._KEPT_GAPS``, and each election's join gathers its heads'
rows from them.  A mobile run, or a larger one, measures its heads'
rows from the positions at every join.  Either way every exported byte
is the same, and moved nodes are never measured from where they stood.
"""

import tracemalloc
import weakref

import pytest

from chsim import cli, simulator
from chsim.cli import main
from chsim.config import ArenaConfig, SimConfig
from chsim.network import Network

MATRIX = 190 * 190 * 8  # the bytes of a 190-node run's kept matrix


@pytest.fixture
def joins(monkeypatch):
    """Records the size of every matrix kept, and whether each join's
    rows were gathered from a kept matrix."""
    record = {"kept": [], "gathered": []}
    keep_gaps, gaps = Network.keep_gaps, Network.gaps

    def counted_keep_gaps(net):
        record["kept"].append(len(net))
        keep_gaps(net)

    def counted_gaps(net, rows):
        record["gathered"].append(net._kept_gaps is not None)
        return gaps(net, rows)

    monkeypatch.setattr(Network, "keep_gaps", counted_keep_gaps)
    monkeypatch.setattr(Network, "gaps", counted_gaps)
    return record


def below_the_bound(monkeypatch):
    monkeypatch.setattr(simulator, "_KEPT_GAPS", 190 * 190 - 1)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("policy", ["dchne", "leach", "rrch"])
def test_a_static_run_keeps_its_gaps_once(joins, policy):
    cfg = SimConfig(arena=ArenaConfig(node_count=40, seed=3), cluster_count=4,
                    max_frames=300, policy=policy)
    simulator.run(cfg)
    assert joins["kept"] == [40]
    assert joins["gathered"] and all(joins["gathered"])


@pytest.mark.parametrize("speed", [1.0, 800.0])
def test_a_mobile_run_never_keeps_gaps(joins, speed):
    cfg = SimConfig(arena=ArenaConfig(node_count=40, seed=3), cluster_count=4,
                    max_frames=300, mobility_speed=speed)
    simulator.run(cfg)
    assert joins["kept"] == []
    assert len(joins["gathered"]) == 15 and not any(joins["gathered"])


@pytest.mark.parametrize("argv", [
    ["compare", "--seeds", "0..0"],
    ["run", "--seed", "0", "--frames", "600", "--format", "json", "--config", "residuals.json"],
], ids=["compare", "record-residuals"])
def test_the_bound_changes_no_exported_byte(tmp_path, monkeypatch, joins, argv):
    (tmp_path / "residuals.json").write_text('{"record_residuals": true}')
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    kept = out.read_bytes()
    assert joins["kept"] == [190] * (3 if argv[0] == "compare" else 1)
    joins["kept"].clear()
    below_the_bound(monkeypatch)
    assert main([*argv, "--out", str(out)]) == 0
    assert joins["kept"] == []
    assert out.read_bytes() == kept


def test_a_kept_matrix_is_all_that_a_run_adds_to_its_peak(monkeypatch):
    cfg = SimConfig(max_frames=1500)
    simulator.run(cfg)  # the first call's peak also holds one-time caches
    peak_kept = traced_peak(lambda: simulator.run(cfg))
    below_the_bound(monkeypatch)
    peak_measured = traced_peak(lambda: simulator.run(cfg))
    assert MATRIX <= peak_kept - peak_measured <= MATRIX + 4096


def test_a_compare_holds_one_matrix_at_a_time(tmp_path, monkeypatch):
    networks = []
    real_run = cli.run

    class Tracked(Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            networks.append(weakref.ref(self))

    def run(cfg, *args):
        # each run's network is freed before the next run is made
        assert all(ref() is None for ref in networks)
        return real_run(cfg, *args)

    monkeypatch.setattr(simulator, "Network", Tracked)
    monkeypatch.setattr(cli, "run", run)
    argv = ["compare", "--seeds", "0..0", "--out", str(tmp_path / "out.csv")]
    traced_peak(lambda: main(argv))  # the first call's peak also holds one-time caches
    peak_kept = traced_peak(lambda: main(argv))
    assert len(networks) == 6
    below_the_bound(monkeypatch)
    peak_measured = traced_peak(lambda: main(argv))
    # two matrices held at once would add 2 * MATRIX
    assert MATRIX // 2 < peak_kept - peak_measured < 3 * MATRIX // 2
