"""Command-line driver: flags, planning, exit codes, reproducible output."""

import csv
import json
import tracemalloc
import weakref
from pathlib import Path

import pytest

from chsim import cli
from chsim.cli import main, parse_args, plan_runs
from chsim.metrics import CURVE_COLUMNS
from chsim.simulator import SimConfig


class TestParsing:
    def test_run_defaults_mirror_reference_profile(self):
        inv = parse_args(["run"])
        assert inv.subcommand == "run"
        cfgs = list(plan_runs(inv))
        assert len(cfgs) == 1
        cfg = cfgs[0]
        assert cfg == SimConfig()
        assert cfg.arena.node_count == 190
        assert cfg.initial_energy == 3.5
        assert cfg.policy == "dchne"
        assert cfg.scenario.kind == "scenario1"
        assert cfg.cluster_count == 10
        assert cfg.max_frames == 12000

    def test_flags_reach_the_config(self):
        inv = parse_args([
            "run", "--policy", "rrch", "--scenario", "2", "--nodes", "50",
            "--clusters", "4", "--frames", "99", "--seed", "8",
            "--duty-cycle", "0.6", "--event-prob", "0.2",
            "--round-frames", "10", "--mobility", "1.5",
        ])
        cfg = list(plan_runs(inv))[0]
        assert cfg.policy == "rrch"
        assert cfg.scenario.kind == "scenario2"
        assert cfg.scenario.duty_cycle == 0.6
        assert cfg.scenario.event_probability == 0.2
        assert cfg.scenario.frames_per_round == 10
        assert cfg.arena.node_count == 50
        assert cfg.arena.seed == 8
        assert cfg.cluster_count == 4
        assert cfg.max_frames == 99
        assert cfg.mobility_speed == 1.5

    def test_compare_plans_three_policies_per_seed(self):
        inv = parse_args(["compare", "--seeds", "1..10", "--scenario", "2"])
        cfgs = list(plan_runs(inv))
        assert len(cfgs) == 30
        assert {c.policy for c in cfgs} == {"dchne", "leach", "rrch"}
        assert {c.arena.seed for c in cfgs} == set(range(1, 11))
        assert all(c.scenario.kind == "scenario2" for c in cfgs)
        # matched environments: same seed means identical arena across policies
        by_seed = {}
        for c in cfgs:
            by_seed.setdefault(c.arena.seed, set()).add(c.arena)
        assert all(len(arenas) == 1 for arenas in by_seed.values())

    def test_sweep_covers_node_range(self):
        cfgs = list(plan_runs(parse_args(["sweep", "--nodes", "10..40..10", "--seeds", "0..1"])))
        assert len(cfgs) == 8
        assert sorted({c.arena.node_count for c in cfgs}) == [10, 20, 30, 40]

    def test_sweep_has_default_node_range(self):
        cfgs = list(plan_runs(parse_args(["sweep"])))
        assert len(cfgs) == 20
        assert min(c.arena.node_count for c in cfgs) == 10
        assert max(c.arena.node_count for c in cfgs) == 200

    def test_config_file_is_read_once_per_invocation(self, tmp_path, monkeypatch):
        config = tmp_path / "base.json"
        config.write_text(json.dumps({"arena": {"node_count": 20}, "cluster_count": 2}))
        reads = []
        read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        for argv, runs in (
            (["compare", "--seeds", "0..2"], 9),
            (["sweep", "--seeds", "0..1", "--nodes", "10..20..5"], 6),
        ):
            reads.clear()
            cfgs = list(plan_runs(parse_args(argv + ["--config", str(config)])))
            assert len(cfgs) == runs
            assert all(cfg.cluster_count == 2 for cfg in cfgs)
            assert reads == [config]

    def test_range_syntax(self):
        assert tuple(parse_args(["compare", "--seeds", "5"]).seeds) == (5,)
        assert tuple(parse_args(["compare", "--seeds", "1..4"]).seeds) == (1, 2, 3, 4)
        assert tuple(parse_args(["compare", "--seeds", "10..50..20"]).seeds) == (10, 30, 50)

    def test_range_holds_no_list_of_its_values(self):
        tracemalloc.start()
        try:
            seeds = parse_args(["compare", "--seeds", "0..1000000"]).seeds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seeds == range(1000001)
        assert peak < 1 << 20

    def test_plan_builds_each_config_when_it_is_reached(self):
        tracemalloc.start()
        try:
            plan = plan_runs(parse_args(["compare", "--seeds", f"0..{10**30}"]))
            first = [next(plan) for _ in range(4)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(c.arena.seed, c.policy) for c in first] == [
            (0, "dchne"), (0, "leach"), (0, "rrch"), (1, "dchne")]
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        ["run", "--seeds", "0..1000000000000"],
        ["run", "--seeds", f"0..{10**30}"],  # longer than sys.maxsize: len() would overflow
        ["run", "--nodes", f"1..{10**30}"],
        ["compare", "--nodes", f"1..{10**30}..7"],
    ])
    def test_huge_range_where_one_value_is_wanted_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--policy", "bogus"],
            ["run", "--seeds", "1..5"],
            ["run", "--seed", "1", "--seeds", "2..3"],
            ["run", "--nodes", "10..50"],
            ["compare", "--policy", "leach"],
            ["compare", "--seeds", "5..1"],
            ["compare", "--seeds", "1..9..0"],
            ["sweep", "--nodes", "ten"],
            ["run", "--format", "yaml"],
            ["teleport"],
            [],
        ],
    )
    def test_bad_invocations_exit_one(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err

    def test_bogus_policy_message_lists_choices(self, capsys):
        main(["run", "--policy", "bogus"])
        err = capsys.readouterr().err
        assert "dchne" in err and "leach" in err and "rrch" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "run" in capsys.readouterr().out
        assert main(["run", "--help"]) == 0
        assert "--policy" in capsys.readouterr().out


class TestExecution:
    def test_zero_frame_run_exports_header_only(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["run", "--frames", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == b"frame,alive,packets_cum,chn_count\n"

    def test_run_writes_curve_rows(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["run", "--nodes", "15", "--clusters", "2", "--frames", "40",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        header, *body = csv.reader(out.read_text().splitlines())
        assert header == list(CURVE_COLUMNS)
        rows = [tuple(map(int, row)) for row in body]
        assert len(rows) == 40
        assert rows[0][1] == 15

    def test_repeat_invocations_are_byte_identical(self, tmp_path):
        argv = ["run", "--nodes", "15", "--clusters", "2", "--frames", "60",
                "--seed", "9", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_compare_single_seed_gives_two_baseline_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["compare", "--nodes", "15", "--clusters", "2", "--frames", "40",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,seed,baseline,packets_delta,lifetime_delta"
        assert len(lines) == 3
        assert [line.split(",")[2] for line in lines[1:]] == ["leach", "rrch"]

    def test_sweep_exports_one_summary_per_run(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--nodes", "10..20..5", "--clusters", "2",
                     "--frames", "30", "--seed", "1", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert [d["nodes"] for d in data] == [10, 15, 20]

    def test_stdout_is_default_destination(self, capsysbinary):
        assert main(["run", "--frames", "0"]) == 0
        assert capsysbinary.readouterr().out == b"frame,alive,packets_cum,chn_count\n"

    def test_config_file_provides_base_values(self, tmp_path):
        config = tmp_path / "profile.json"
        config.write_text(json.dumps({
            "arena": {"node_count": 18, "seed": 7},
            "cluster_count": 3,
            "scenario": {"kind": "scenario2", "event_probability": 0.25},
            "max_frames": 25,
        }))
        inv = parse_args(["run", "--config", str(config), "--clusters", "2"])
        cfg = list(plan_runs(inv))[0]
        assert cfg.arena.node_count == 18
        assert cfg.arena.seed == 7  # file seed survives when no flag overrides it
        assert cfg.cluster_count == 2  # flag beats file
        assert cfg.scenario.event_probability == 0.25
        assert cfg.max_frames == 25

    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"antenna_gain": 3}))
        assert main(["run", "--config", str(config)]) == 2
        assert "antenna_gain" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"arena": 5},
        {"energy": [1, 2]},
        {"arena": {"bs_position": [float("nan"), 0]}},
        {"arena": {"bs_position": [175.0]}},
        {"arena": {"node_count": 10.5}},
        {"max_frames": 1.5},
        {"initial_energy": None},
        {"arena": {"node_count": "20"}},
        {"arena": {"node_count": True}},
        {"mobility_speed": "1"},
        {"scenario": {"kind": "scenario2", "frames_per_round": 2.5}},
        {"scenario": {"d_size": 1e400}},
        {"arena": {"side_a": 1e200}, "msgs": {"d_join": 0}},  # was a NaN residual
        # energy costs that overflow a float, caught before the first frame
        {"energy": {"e_agg": 1.7e308}},
        {"energy": {"e_mh": 1e300}},
        {"arena": {"bs_position": [1e80, 0]}},
        # integers too large for a float (was an OverflowError traceback)
        {"scenario": {"d_size": 10**400}, "max_frames": 2},
        {"msgs": {"d_adv": 10**400}, "max_frames": 2},
        # huge rejected values print abridged (each line was 400+ characters)
        {"msgs": {"d_adv": 10**400}},
        {"arena": [10**400]},
        {"policy": "x" * 500},
        {"x" * 500: 1},
    ])
    def test_malformed_config_is_one_line_error(self, tmp_path, capsys, payload):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(payload))
        # no --frames flag, so a max_frames payload reaches the config
        assert main(["run", "--seed", "1", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) <= 200

    def test_missing_config_file_is_runtime_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_unwritable_output_is_runtime_error(self, capsys):
        code = main(["run", "--frames", "0", "--out", "/nonexistent-dir/x.csv"])
        assert code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("err", [
        MemoryError("Unable to allocate 14.6 TiB for an array with shape (1000000000000, 2) "
                    "and data type float64"),
        MemoryError(),
    ])
    def test_out_of_memory_is_one_line_error(self, monkeypatch, capsys, err):
        # whether a huge request fails at once depends on the machine, so
        # the run is made to fail rather than to allocate
        def exhausted(cfg):
            raise err

        monkeypatch.setattr("chsim.cli.run", exhausted)
        assert main(["run", "--nodes", "1000000000000", "--clusters", "1", "--frames", "1"]) == 2
        assert capsys.readouterr().err == f"error: {str(err) or 'MemoryError'}\n"

    def test_invalid_config_combination_is_runtime_error(self, capsys):
        assert main(["run", "--nodes", "5", "--clusters", "9", "--frames", "1"]) == 2
        assert "SimConfig.cluster_count" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["compare", "sweep"])
    def test_invalid_plan_fails_before_any_run(self, subcommand, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr("chsim.cli.run", never)
        nodes = "5..50..5" if subcommand == "sweep" else "5"
        assert main([subcommand, "--nodes", nodes, "--clusters", "9", "--seeds", "0..2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "SimConfig.cluster_count" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_that_fails_late_writes_nothing(self, fmt, tmp_path, monkeypatch,
                                                  capsysbinary):
        real_run = cli.run
        calls = []

        def fails_on_third(cfg, *args):
            calls.append(cfg)
            if len(calls) == 3:
                raise ValueError("energy overflow")
            return real_run(cfg, *args)

        monkeypatch.setattr("chsim.cli.run", fails_on_third)
        argv = ["sweep", "--nodes", "10..50..10", "--clusters", "2", "--frames", "30",
                "--seed", "1", "--format", fmt]
        out = tmp_path / f"sweep.{fmt}"
        assert main(argv + ["--out", str(out)]) == 2
        assert len(calls) == 3
        assert not out.exists()
        assert capsysbinary.readouterr() == (b"", b"error: energy overflow\n")
        calls.clear()
        assert main(argv) == 2
        assert capsysbinary.readouterr() == (b"", b"error: energy overflow\n")

    def test_sweep_memory_follows_its_output(self, tmp_path, monkeypatch):
        # a summary's curve held as tuples takes about 8 times the bytes of
        # its JSON, so holding the runs' curves would exceed the bound; both
        # mobile sweeps hold one seed's kept steps (2 MiB), so holding a set
        # of them per run would exceed it too
        summaries = []
        real_summarize, real_run = cli.summarize, cli.run

        def summarize(trace):
            summary = real_summarize(trace)
            summaries.append(weakref.ref(summary))
            return summary

        def run(cfg, *args):
            # the bound cannot see one summary held while the next run is made
            assert all(ref() is None for ref in summaries)
            return real_run(cfg, *args)

        monkeypatch.setattr(cli, "summarize", summarize)
        monkeypatch.setattr(cli, "run", run)

        def traced_peak(nodes, out, *mobility):
            tracemalloc.start()
            try:
                assert main(["sweep", "--nodes", nodes, "--clusters", "2", "--frames", "1500",
                             "--seed", "0", "--format", "json", "--out", str(out),
                             *mobility]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for mobility in ((), ("--mobility", "1.0")):
            one, eight = tmp_path / "one.json", tmp_path / "eight.json"
            summaries.clear()
            traced_peak("80", one, *mobility)  # the first call's peak also holds one-time caches
            peak_one = traced_peak("80", one, *mobility)
            peak_eight = traced_peak("10..80..10", eight, *mobility)
            extra_bytes = eight.stat().st_size - one.stat().st_size
            assert extra_bytes > 7 * 1500 * 10  # each run exports its 1500-frame curve
            assert peak_eight - peak_one < 2 * extra_bytes, mobility
            assert len(summaries) == 10
