"""Summaries, comparison tables, CSV/JSON export and parse-back."""

import io
import weakref

import numpy as np
import pytest

from chsim.arena import ArenaConfig
from chsim.metrics import (
    ComparisonTable,
    GroupingError,
    RunSummary,
    compare,
    export,
    read_curve_csv,
    read_summary_json,
    summarize,
)
from chsim.simulator import SimConfig, SimTrace, run


def make_trace(alive, packets, chn, nodes=None, policy="dchne", seed=0):
    alive = np.asarray(alive, dtype=int)
    nodes = int(alive[0]) if nodes is None and len(alive) else (nodes or 5)
    n = len(alive)
    return SimTrace(
        config=SimConfig(
            arena=ArenaConfig(node_count=nodes, seed=seed),
            policy=policy,
            cluster_count=1,
        ),
        termination="max-frames",
        alive=alive,
        packets_cum=np.asarray(packets, dtype=int),
        chn_count=np.asarray(chn, dtype=int),
        head_change_frames=(0,) if n else (),
        head_change_ids=((0,),) if n else (),
        reelections=(),
        final_residual=np.zeros(nodes),
        final_consumed=np.zeros(nodes),
        initial_energy_per_node=np.full(nodes, 3.5),
    )


def make_summary(rng=None, policy="dchne", scenario="scenario1", seed=0, packets=None,
                 lifetime_frames=None):
    rng = rng or np.random.default_rng(0)
    n = int(rng.integers(1, 30)) if lifetime_frames is None else lifetime_frames
    start = int(rng.integers(1, 25))
    alive = np.maximum(start - np.cumsum(rng.integers(0, 3, size=n)), 0)
    cum = np.cumsum(rng.integers(0, 6, size=n))
    curve = tuple(
        (f, int(alive[f]), int(cum[f]), int(rng.integers(0, 4))) for f in range(n)
    )
    dead = np.nonzero(alive == 0)[0]
    drop = np.nonzero(alive < start)[0]
    return RunSummary(
        policy=policy,
        scenario=scenario,
        seed=seed,
        nodes=start,
        total_packets=packets if packets is not None else (int(cum[-1]) if n else 0),
        first_death_frame=int(drop[0]) if len(drop) else None,
        all_dead_frame=int(dead[0]) if len(dead) else None,
        curve=curve,
    )


class TestSummarize:
    def test_empty_trace_gives_zeroed_summary(self):
        summary = summarize(make_trace([], [], [], nodes=5))
        assert summary.total_packets == 0
        assert summary.first_death_frame is None
        assert summary.all_dead_frame is None
        assert summary.curve == ()
        assert summary.lifetime() == 0

    def test_hand_built_trace_copies_exactly(self):
        summary = summarize(make_trace([4, 3, 0], [7, 9, 9], [1, 1, 0], seed=6))
        assert summary.policy == "dchne"
        assert summary.scenario == "scenario1"
        assert summary.seed == 6
        assert summary.nodes == 4
        assert summary.total_packets == 9
        assert summary.first_death_frame == 1
        assert summary.all_dead_frame == 2
        assert summary.curve == ((0, 4, 7, 1), (1, 3, 9, 1), (2, 0, 9, 0))
        assert summary.lifetime() == 2

    def test_censored_lifetime_is_frame_count(self):
        summary = summarize(make_trace([4, 4, 4], [1, 2, 3], [1, 1, 1]))
        assert summary.all_dead_frame is None
        assert summary.lifetime() == 3

    def test_fields_match_rescan_of_real_run(self):
        trace = run(SimConfig(arena=ArenaConfig(node_count=25, seed=2),
                              cluster_count=3, max_frames=250))
        summary = summarize(trace)
        assert summary.total_packets == trace.packets_cum[-1]
        deaths = [f for f in range(len(trace)) if trace.alive[f] < 25]
        assert summary.first_death_frame == (deaths[0] if deaths else None)
        assert summary.curve[10] == (10, trace.alive[10], trace.packets_cum[10], trace.chn_count[10])
        assert len(summary.curve) == len(trace)


class TestCompare:
    def test_identical_runs_have_zero_deltas(self):
        a = make_summary(policy="dchne", packets=50, lifetime_frames=10)
        b = RunSummary(**{**a.__dict__, "policy": "leach"})
        table = compare([a, b])
        assert len(table.rows) == 1
        assert table.rows[0].packets_delta == 0
        assert table.rows[0].lifetime_delta == 0

    def test_packet_delta_is_signed_difference(self):
        a = make_summary(policy="dchne", packets=10)
        b = RunSummary(**{**a.__dict__, "policy": "rrch", "total_packets": 7})
        table = compare([a, b])
        assert table.rows[0].packets_delta == 3

    def test_deltas_are_antisymmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = make_summary(rng)
            b = make_summary(rng, policy="leach")
            swapped = [RunSummary(**{**b.__dict__, "policy": "dchne"}),
                       RunSummary(**{**a.__dict__, "policy": "leach"})]
            (row,), (back,) = compare([a, b]).rows, compare(swapped).rows
            assert row.packets_delta == -back.packets_delta == a.total_packets - b.total_packets
            assert row.lifetime_delta == -back.lifetime_delta == a.lifetime() - b.lifetime()

    def test_ten_seed_aggregates_match_independent_arithmetic(self):
        rng = np.random.default_rng(3)
        summaries, per_seed = [], {}
        for seed in range(10):
            d = make_summary(rng, policy="dchne", seed=seed)
            l = make_summary(rng, policy="leach", seed=seed)
            summaries += [d, l]
            per_seed[seed] = (d.total_packets - l.total_packets, d.lifetime() - l.lifetime())
        table = compare(summaries)
        assert len(table.rows) == 10
        packet_deltas = [v[0] for v in per_seed.values()]
        agg = {(a.metric): a for a in table.aggregates}
        assert agg["packets_delta"].mean == pytest.approx(np.mean(packet_deltas))
        assert agg["packets_delta"].min == min(packet_deltas)
        assert agg["packets_delta"].max == max(packet_deltas)
        lifetime_deltas = [v[1] for v in per_seed.values()]
        assert agg["lifetime_delta"].mean == pytest.approx(np.mean(lifetime_deltas))

    def test_duplicate_policy_in_group_rejected(self):
        a = make_summary(policy="dchne")
        with pytest.raises(GroupingError):
            compare([a, a])

    def test_group_without_reference_policy_rejected(self):
        with pytest.raises(GroupingError):
            compare([make_summary(policy="leach"), make_summary(policy="rrch")])

    def test_group_without_baseline_rejected(self):
        with pytest.raises(GroupingError):
            compare([make_summary(policy="dchne")])

    def test_groups_keyed_by_scenario_and_seed(self):
        rows = []
        for scenario in ("scenario1", "scenario2"):
            for seed in (0, 1):
                rows.append(make_summary(policy="dchne", scenario=scenario, seed=seed))
                rows.append(make_summary(policy="rrch", scenario=scenario, seed=seed))
        table = compare(rows)
        assert len(table.rows) == 4
        assert sorted((r.scenario, r.seed) for r in table.rows) == [
            ("scenario1", 0), ("scenario1", 1), ("scenario2", 0), ("scenario2", 1)
        ]

    def test_streamed_summaries_are_not_kept(self):
        refs = []

        def summaries():
            for seed in range(3):
                for policy in ("dchne", "leach"):
                    # compare() may still hold the summary it read last, and no other
                    assert [r() for r in refs[:-1]] == [None] * len(refs[:-1])
                    packets = 10 * seed + (7 if policy == "dchne" else 0)
                    summary = make_summary(policy=policy, seed=seed, packets=packets)
                    refs.append(weakref.ref(summary))
                    yield summary

        table = compare(summaries())
        assert len(refs) == 6
        assert [r() for r in refs] == [None] * 6
        assert [row.packets_delta for row in table.rows] == [7, 7, 7]


class TestExport:
    def test_empty_summary_csv_is_header_only(self, tmp_path):
        path = tmp_path / "curve.csv"
        wrote = export(summarize(make_trace([], [], [], nodes=3)), "csv", path)
        assert path.read_bytes() == b"frame,alive,packets_cum,chn_count\n"
        assert wrote == path.stat().st_size

    def test_two_record_trace_gives_three_csv_lines(self, tmp_path):
        path = tmp_path / "curve.csv"
        export(make_trace([5, 4], [3, 6], [1, 1]), "csv", path)
        lines = path.read_text().splitlines()
        assert lines == ["frame,alive,packets_cum,chn_count", "0,5,3,1", "1,4,6,1"]

    def test_summary_json_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(14)
        for i in range(20):
            summary = make_summary(rng, seed=i)
            path = tmp_path / f"s{i}.json"
            export(summary, "json", path)
            assert read_summary_json(path) == summary

    def test_curve_csv_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(15)
        for i in range(20):
            summary = make_summary(rng, seed=i)
            path = tmp_path / f"c{i}.csv"
            export(summary, "csv", path)
            assert read_curve_csv(path) == summary.curve

    def test_file_like_destination_and_byte_count(self):
        sink = io.BytesIO()
        summary = make_summary()
        wrote = export(summary, "json", sink)
        assert wrote == len(sink.getvalue())
        sink.seek(0)
        assert read_summary_json(sink) == summary

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export(make_summary(), "xml", tmp_path / "x")

    def test_unwritable_destination_raises_io_error(self):
        with pytest.raises(OSError):
            export(make_summary(), "csv", "/nonexistent-dir/curve.csv")

    def test_comparison_table_exports_both_formats(self, tmp_path):
        a = make_summary(policy="dchne", packets=12)
        b = RunSummary(**{**a.__dict__, "policy": "leach", "total_packets": 5})
        table = compare([a, b])
        csv_path = tmp_path / "t.csv"
        export(table, "csv", csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "scenario,seed,baseline,packets_delta,lifetime_delta"
        assert len(lines) == 2
        export(table, "json", tmp_path / "t.json")
        assert b'"packets_delta":7' in (tmp_path / "t.json").read_bytes()

    def test_summary_list_exports_for_sweeps(self, tmp_path):
        rng = np.random.default_rng(5)
        batch = [make_summary(rng, seed=s) for s in range(3)]
        path = tmp_path / "sweep.csv"
        export(batch, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("policy,scenario,seed,nodes,total_packets")
        export(batch, "json", tmp_path / "sweep.json")

    def test_malformed_curve_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,alive\n0,1\n")
        with pytest.raises(ValueError):
            read_curve_csv(path)

    def test_trace_json_includes_config_echo(self, tmp_path):
        import json

        trace = make_trace([5, 4], [3, 6], [1, 1], seed=9)
        path = tmp_path / "trace.json"
        export(trace, "json", path)
        data = json.loads(path.read_text())
        assert data["config"]["arena"]["seed"] == 9
        assert data["alive"] == [5, 4]
        assert data["termination"] == "max-frames"
