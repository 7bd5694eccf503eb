"""Command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


def _run_cli(argv):
    """Run ``python -m repro`` in a child process, as a user would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "FulltoPartial"
        assert args.day == "weekday"
        assert args.consolidation_hosts == 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "Nope"])

    def test_micro_tables_enumerated(self):
        for table in ("table1", "fig1", "fig2", "fig5", "fig6", "traffic"):
            args = build_parser().parse_args(["micro", table])
            assert args.table == table

    def test_simulate_accepts_runs_and_workers(self):
        args = build_parser().parse_args(
            ["simulate", "--runs", "3", "--workers", "2"]
        )
        assert args.runs == 3
        assert args.workers == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.policy == "all"
        assert args.workers == 1
        assert args.consolidation_counts == "2,4"


class TestSweepCommand:
    def test_small_serial_sweep(self, capsys):
        assert main([
            "sweep", "--policy", "FulltoPartial", "--runs", "2",
            "--consolidation-counts", "1,2",
            "--home-hosts", "4", "--vms-per-host", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "FulltoPartial" in out
        assert "1 cons" in out and "2 cons" in out
        assert "timing:" in out
        assert "serial backend" in out

    def test_small_process_sweep(self, capsys):
        assert main([
            "sweep", "--policy", "FulltoPartial", "--runs", "2",
            "--workers", "2", "--consolidation-counts", "1",
            "--home-hosts", "4", "--vms-per-host", "4",
        ]) == 0
        assert "process backend x2" in capsys.readouterr().out

    def test_bad_counts_rejected(self, capsys):
        assert main([
            "sweep", "--consolidation-counts", "two,4",
        ]) == 2

    def test_simulate_repetitions(self, capsys):
        assert main([
            "simulate", "--runs", "2",
            "--home-hosts", "4", "--consolidation-hosts", "1",
            "--vms-per-host", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean savings:" in out
        assert "ensemble cache" in out


class TestMicroCommands:
    def test_table1_output(self, capsys):
        assert main(["micro", "table1"]) == 0
        out = capsys.readouterr().out
        assert "102.2" in out
        assert "12.9" in out

    def test_fig5_output(self, capsys):
        assert main(["micro", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "full migration" in out
        assert "partial migration #2" in out

    def test_fig6_output(self, capsys):
        assert main(["micro", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "LibreOffice" in out

    def test_fig1_output(self, capsys):
        assert main(["micro", "fig1"]) == 0
        assert "Desktop" in capsys.readouterr().out

    def test_traffic_output(self, capsys):
        assert main(["micro", "traffic"]) == 0
        assert "reintegration dirty" in capsys.readouterr().out


class TestTracesCommands:
    def test_generate_then_stats(self, tmp_path, capsys):
        out_file = tmp_path / "traces.csv"
        assert main([
            "traces", "generate", "--count", "40", "--out", str(out_file),
        ]) == 0
        assert out_file.exists()
        assert main(["traces", "stats", "--file", str(out_file)]) == 0
        assert "users=40" in capsys.readouterr().out

    def test_json_roundtrip_via_extension(self, tmp_path, capsys):
        out_file = tmp_path / "traces.json"
        assert main([
            "traces", "generate", "--count", "12", "--out", str(out_file),
        ]) == 0
        assert out_file.read_text().lstrip().startswith("{")
        assert main(["traces", "stats", "--file", str(out_file)]) == 0
        assert "users=12" in capsys.readouterr().out


class TestSimulateCommand:
    def test_week_simulation_runs(self, capsys):
        code = main([
            "simulate",
            "--home-hosts", "3",
            "--consolidation-hosts", "1",
            "--vms-per-host", "3",
            "--week",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "weekly savings" in out
        assert "kWh/year" in out

    def test_small_simulation_runs(self, capsys):
        code = main([
            "simulate",
            "--home-hosts", "4",
            "--consolidation-hosts", "1",
            "--vms-per-host", "4",
            "--policy", "FulltoPartial",
            "--day", "weekend",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy savings" in out
        assert "home-host sleep" in out


class TestZonedSimulateCommand:
    def test_parser_zone_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.zones == 1
        assert args.budget_w is None

    def test_zero_zones_rejected(self, capsys):
        assert main(["simulate", "--zones", "0"]) == 2
        assert "--zones must be >= 1" in capsys.readouterr().err

    def test_zones_incompatible_with_week(self, capsys):
        assert main(["simulate", "--zones", "2", "--week"]) == 2
        assert "drop --week and --runs" in capsys.readouterr().err

    def test_zones_incompatible_with_runs(self, capsys):
        assert main(["simulate", "--zones", "2", "--runs", "2"]) == 2
        assert "drop --week and --runs" in capsys.readouterr().err

    def test_zoned_run_prints_zone_table(self, capsys):
        code = main([
            "simulate",
            "--home-hosts", "4",
            "--consolidation-hosts", "2",
            "--vms-per-host", "4",
            "--zones", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy savings" in out  # the aggregate day summary
        for header in ("zone", "homes", "cons", "savings", "share W"):
            assert header in out
        assert "budget:" not in out  # no --budget-w, no budget line

    def test_budget_line_reports_status(self, capsys):
        code = main([
            "simulate",
            "--home-hosts", "4",
            "--consolidation-hosts", "2",
            "--vms-per-host", "4",
            "--zones", "2",
            "--budget-w", "100000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget:           100000 W across 2 zones" in out
        assert "all zones within budget" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--home-hosts", "2", "--consolidation-hosts", "0",
         "--vms-per-host", "2"],
        ["simulate", "--home-hosts", "2", "--consolidation-hosts", "1",
         "--vms-per-host", "2", "--zones", "5"],
        ["simulate", "--home-hosts", "4", "--consolidation-hosts", "2",
         "--vms-per-host", "2", "--zones", "2", "--budget-w", "0"],
        ["sweep", "--consolidation-counts", "0,1"],
        ["simulate", "--policy", "Default", "--gamma", "1"],
    ])
    def test_config_error_exits_2_with_one_stderr_line(self, argv):
        completed = _run_cli(argv)
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1, completed.stderr

    @pytest.mark.parametrize("argv", [
        ["traces", "stats", "--file", "{tmp}/missing.csv"],
        ["traces", "stats", "--file", "{tmp}/no_traces.json"],
        ["equiv", "compare", "--baseline", "{tmp}/missing.json"],
        ["equiv", "compare", "--baseline", "{tmp}/not_json.json"],
        ["simulate", "--home-hosts", "2", "--consolidation-hosts", "1",
         "--vms-per-host", "2", "--trace", "{tmp}/no/such/dir/day.jsonl"],
    ])
    def test_bad_file_exits_2_with_one_stderr_line(self, tmp_path, argv):
        (tmp_path / "no_traces.json").write_text('{"users": []}\n')
        (tmp_path / "not_json.json").write_text("not json\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        completed = _run_cli(argv)
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1, completed.stderr
        assert argv[-1] in completed.stderr
        # Nothing ran first: a bad --trace path fails before the day.
        assert completed.stdout == ""

    @pytest.mark.parametrize("argv,option", [
        (["simulate", "--runs", "0"], "--runs"),
        (["simulate", "--runs", "-3"], "--runs"),
        (["simulate", "--workers", "0"], "--workers"),
        (["simulate", "--workers", "-1"], "--workers"),
        (["sweep", "--runs", "0"], "--runs"),
        (["sweep", "--workers", "0"], "--workers"),
        (["equiv", "selftest", "--workers", "0"], "--workers"),
        (["simulate", "--zones", "-2"], "--zones"),
    ])
    def test_counts_below_one_are_usage_errors(self, capsys, argv, option):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{option} must be >= 1" in captured.err
        assert captured.out == ""
