"""Command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import read_jsonl, timeline_summary
from tests.golden.update_goldens import EQUIV_BASELINE_PATH
from tests.test_farm_runner import needs_fork

#: The committed perfbench report CI's perf gate checks against.
BENCH_HOTPATH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_hotpath.json",
)


def _run_cli(argv, launcher=("-m", "repro")):
    """Run ``python -m repro`` in a child process, as a user would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *launcher, *argv],
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


#: ``python -m repro`` with every pool run replaced by a worker death
#: (forked workers inherit the patch).
_DYING_WORKERS = """
import os, runpy, sys
import repro.farm.runner
repro.farm.runner.execute_run = lambda spec: os._exit(3)
sys.argv[0] = "repro"
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


class TestDeadWorker:
    @needs_fork
    def test_sweep_reports_lost_runs_in_one_stderr_line(self):
        proc = _run_cli(
            [
                "sweep", "--policy", "FulltoPartial", "--runs", "1",
                "--workers", "2", "--consolidation-counts", "1,2",
                "--home-hosts", "4", "--vms-per-host", "4",
            ],
            launcher=("-c", _DYING_WORKERS),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "a pool worker died; 2 run(s) lost: "
            "FulltoPartial/1 consolidation hosts, "
            "FulltoPartial/2 consolidation hosts\n"
        )


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


class TestTraceCommand:
    FARM = ["--home-hosts", "2", "--consolidation-hosts", "1",
            "--vms-per-host", "2"]

    def test_simulate_trace_then_summarize_and_validate(
        self, tmp_path, capsys
    ):
        jsonl = str(tmp_path / "day.jsonl")
        chrome = str(tmp_path / "day.json")
        assert main(["simulate", *self.FARM, "--trace", jsonl]) == 0
        assert main(["simulate", *self.FARM, "--trace", chrome,
                     "--trace-format", "chrome"]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", jsonl]) == 0
        summary = capsys.readouterr().out
        assert summary == timeline_summary(read_jsonl(jsonl)) + "\n"
        assert "power transitions:" in summary
        for path in (jsonl, chrome):
            assert main(["trace", "validate", path]) == 0
            assert capsys.readouterr().out.startswith("OK: ")

    @pytest.mark.parametrize("action,name", [
        ("summarize", "x.jsonl"),
        ("validate", "x.jsonl"),
        ("validate", "x.json"),
    ])
    def test_non_utf8_file_is_one_stderr_line(self, tmp_path, action, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\x00bad")
        completed = _run_cli(["trace", action, str(path)])
        assert completed.returncode == 1
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1, completed.stderr
        assert completed.stderr.startswith(f"invalid trace: {path}: ")
        assert completed.stdout == ""

    @pytest.mark.parametrize("content,reason", [
        ("not json", "Expecting value"),
        ("[1]", "chrome trace must be a JSON object"),
        ('{"traceEvents": [{"name": 1}]}', "traceEvents[0]: missing 'ph'"),
    ])
    def test_bad_chrome_file_is_one_stderr_line_naming_it(
        self, tmp_path, content, reason
    ):
        path = tmp_path / "x.json"
        path.write_text(content)
        completed = _run_cli(["trace", "validate", str(path)])
        assert completed.returncode == 1
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1, completed.stderr
        assert completed.stderr.startswith(f"invalid trace: {path}: ")
        assert reason in completed.stderr

    def test_bad_jsonl_file_names_its_path_once(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("not json\n")
        completed = _run_cli(["trace", "validate", str(path)])
        assert completed.returncode == 1
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1, completed.stderr
        assert completed.stderr.startswith(f"invalid trace: {path}:1: ")
        assert completed.stderr.count(str(path)) == 1


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
        ["simulate", "--policy", "GammaRobust", "--gamma", "-1"],
    ])
    def test_config_error_exits_2_with_one_stderr_line(self, argv):
        completed = _run_cli(argv)
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1, completed.stderr

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exits_2(self, budget):
        completed = _run_cli([
            "simulate", "--zones", "2", "--budget-w", budget,
            "--home-hosts", "4", "--vms-per-host", "2",
        ])
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.splitlines() == [
            f"budget_w must be positive and finite, got {budget}"
        ]
        assert completed.stdout == ""

    @pytest.mark.parametrize("limit", ["1.0", "nan", "inf"])
    def test_check_limit_that_cannot_gate_exits_2_before_any_case(
        self, tmp_path, limit
    ):
        # NaN and inf pass every "slower than limit x baseline" test, so
        # either would switch the gate off.
        out = tmp_path / "x.json"
        completed = _run_cli([
            "perfbench", "--quick", "--no-profile", "--out", str(out),
            "--check", BENCH_HOTPATH_PATH, "--check-limit", limit,
        ])
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.splitlines() == [
            f"regression limit must be a finite factor > 1.0, got {limit}"
        ]
        assert completed.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["traces", "stats", "--file", "{tmp}/missing.csv"],
        ["traces", "stats", "--file", "{tmp}/no_traces.json"],
        ["equiv", "compare", "--baseline", "{tmp}/missing.json"],
        ["equiv", "compare", "--baseline", "{tmp}/not_json.json"],
        ["simulate", "--home-hosts", "2", "--consolidation-hosts", "1",
         "--vms-per-host", "2", "--trace", "{tmp}/no/such/dir/day.jsonl"],
        ["equiv", "compare", "--baseline", "{tmp}/list.json"],
        ["equiv", "compare", "--policy", "Default",
         "--baseline", "{tmp}/no_day_type.json"],
        ["equiv", "compare", "--policy", "Default",
         "--baseline", "{tmp}/holiday.json"],
        ["equiv", "compare", "--policy", "Default",
         "--baseline", "{tmp}/bad_seeds.json"],
        ["equiv", "compare", "--policy", "Default",
         "--baseline", "{tmp}/policy_list.json"],
        ["traces", "generate", "--count", "3",
         "--out", "{tmp}/no/such/dir/x.csv"],
        ["traces", "generate", "--count", "3", "--out", "{tmp}"],
        ["equiv", "compare", "--policy", "Default",
         "--baseline", "{tmp}/policy_int.json"],
        ["equiv", "compare", "--policy", "Default",
         "--baseline", "{tmp}/energy_str.json"],
        # Checked before any case or ensemble runs.
        ["perfbench", "--quick", "--no-profile", "--out", "{tmp}/o.json",
         "--baseline", "{tmp}/not_json.json"],
        ["perfbench", "--quick", "--no-profile",
         "--out", "{tmp}/no/such/dir/x.json"],
        ["perfbench", "--quick", "--no-profile", "--out", "{tmp}/o.json",
         "--check", "{tmp}/missing.json"],
        ["perfbench", "--quick", "--no-profile", "--out", "{tmp}/o.json",
         "--check", "{tmp}/no_traces.json"],
        ["equiv", "baseline", "--policies", "Default", "--ensemble-size",
         "1", "--home-hosts", "2", "--consolidation-hosts", "1",
         "--vms-per-host", "2", "--out", "{tmp}/no/such/dir/b.json"],
        ["equiv", "selftest", "--mutants", "identity", "--ensemble-size",
         "2", "--home-hosts", "2", "--consolidation-hosts", "1",
         "--vms-per-host", "2", "--report", "{tmp}/no/such/dir/r.json"],
        ["equiv", "compare", "--baseline", EQUIV_BASELINE_PATH,
         "--policy", "Default", "--report", "{tmp}/no/such/dir/r.json"],
    ])
    def test_bad_file_exits_2_with_one_stderr_line(self, tmp_path, argv):
        (tmp_path / "no_traces.json").write_text('{"users": []}\n')
        (tmp_path / "not_json.json").write_text("not json\n")
        (tmp_path / "list.json").write_text("[]\n")
        # Copies of the committed baseline with one field broken.
        with open(EQUIV_BASELINE_PATH, encoding="utf-8") as handle:
            baseline = json.load(handle)
        for name, field, value in (
            ("no_day_type", "day_type", None),
            ("holiday", "day_type", "holiday"),
            ("bad_seeds", "seeds", ["x"]),
            ("policy_list", "policies", []),
        ):
            broken = dict(baseline)
            if value is None:
                del broken[field]
            else:
                broken[field] = value
            (tmp_path / f"{name}.json").write_text(json.dumps(broken))
        # ... and with one policy's fingerprints broken.
        defaults = baseline["policies"]["Default"]
        for name, entries in (
            ("policy_int", 5),
            ("energy_str",
             [dict(defaults[0], total_energy_j="abc")] + defaults[1:]),
        ):
            broken = dict(baseline)
            broken["policies"] = dict(baseline["policies"], Default=entries)
            (tmp_path / f"{name}.json").write_text(json.dumps(broken))
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

    def test_baseline_takes_no_alpha(self, capsys, tmp_path):
        # Building a baseline runs no battery, so a family-wise budget
        # there would be read by nothing.
        out = tmp_path / "baseline.json"
        assert main([
            "equiv", "baseline", "--policies", "Default",
            "--ensemble-size", "2", "--alpha", "0.5", "--out", str(out),
        ]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --alpha 0.5" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_compare_with_a_farm_flag_exits_2(self):
        # The baseline records its farm; a flag for another one is a
        # usage error, not a certificate for a 20-VM farm.
        completed = _run_cli([
            "equiv", "compare", "--baseline", EQUIV_BASELINE_PATH,
            "--policy", "Default", "--vms-per-host", "5",
        ])
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert "unrecognized arguments: --vms-per-host 5" in completed.stderr
        assert completed.stdout == ""

    @pytest.mark.parametrize("flag,value", [
        ("--home-hosts", "8"),
        ("--consolidation-hosts", "3"),
        ("--day", "weekend"),
        ("--seed", "1"),
        ("--ensemble-size", "5"),
    ])
    def test_compare_takes_farm_day_and_seeds_from_the_baseline(
        self, capsys, flag, value
    ):
        assert main([
            "equiv", "compare", "--baseline", EQUIV_BASELINE_PATH,
            flag, value,
        ]) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == ""
