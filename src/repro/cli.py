"""Command-line interface: ``oasis-sim`` / ``python -m repro``.

Subcommands:

* ``simulate`` — run one trace-driven day (or ``--runs`` repetitions,
  optionally in parallel with ``--workers``) and print the summary;
* ``sweep``    — run a Figure-8-shaped consolidation-host sweep, with
  ``--workers`` fanning the runs out over processes;
* ``micro``    — print a micro-benchmark table (table1, fig1, fig2,
  fig5, fig6, traffic);
* ``traces``   — generate or summarize trace CSV files;
* ``trace``    — summarize or validate an event trace recorded with
  ``simulate --trace`` (JSONL, or Chrome ``trace_event`` JSON that
  Perfetto / ``chrome://tracing`` can open);
* ``perfbench`` — time ``simulate_day`` and sweep throughput across
  policies/scales, write ``BENCH_hotpath.json``, print a cProfile
  table, and optionally gate against a committed baseline;
* ``equiv``    — the statistical engine-equivalence battery: ``selftest``
  (mutation power proof), ``baseline`` (capture reference ensembles),
  ``compare`` (certify the current engine against a committed baseline).

The full evaluation sweeps live in ``benchmarks/`` (one per paper table
or figure); the CLI covers interactive exploration and smoke-testing
the parallel sweep runner.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import List, Optional

from repro.analysis import Cdf, format_percent, format_table
from repro.core import ALL_POLICIES, policy_by_name, policy_names
from repro.errors import ConfigError, TraceFormatError, WorkerLostError
from repro.farm import FarmConfig, SweepRunner, simulate_day
from repro.faults import FAULT_PROFILE_NAMES, fault_profile_by_name
from repro.policies import oracle_gap_report, render_gap_report
from repro.traces import (
    DayType,
    compute_ensemble_stats,
    generate_ensemble,
    read_traces_csv,
    write_traces_csv,
)
from repro.traces.sampler import TraceEnsemble


def _input_error(path: str, error: Exception) -> ConfigError:
    """A one-line usage error naming an input file the command cannot use."""
    detail = getattr(error, "strerror", None) or error
    return ConfigError(f"cannot read {path}: {detail}")


def _check_output_path(path: str, what: str) -> None:
    """Fail before any work, not after it, on a path the command's
    output cannot be written to."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(directory):
        raise ConfigError(
            f"cannot write {what} {path}: not a file path in an existing "
            "directory"
        )


def _day_type(value: str) -> DayType:
    return DayType(value.lower())


class _PositiveInt(argparse.Action):
    """``--runs``/``--workers``/``--zones``: an integer >= 1.

    Used with ``type=int``; a zero or negative count is a usage error
    (exit 2) at parse time rather than a silent single run or serial
    fallback.
    """

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            parser.error(f"{option_string} must be >= 1")
        setattr(namespace, self.dest, value)


def _make_runner(workers: int) -> SweepRunner:
    """A process-backed runner when >1 worker is requested, else serial."""
    if workers > 1:
        return SweepRunner(backend="process", workers=workers)
    return SweepRunner()


def _print_day_summary(result, config: FarmConfig, chart: bool) -> None:
    """The single-day report block; shared by the unsharded and the
    zoned path, whose 1-zone aggregate must print byte-identically."""
    print(f"policy:           {result.policy_name} ({result.day_type})")
    print(f"energy savings:   {format_percent(result.savings_fraction)}")
    print(f"baseline:         {result.energy.baseline_wh:.0f} Wh")
    print(f"managed:          {result.energy.managed_wh:.0f} Wh")
    print(
        f"home-host sleep:  "
        f"{format_percent(result.mean_home_sleep_fraction())} of the day"
    )
    print(f"peak active VMs:  {result.peak_active_vms}")
    print(f"min powered:      {result.min_powered_hosts} hosts")
    print(
        f"transitions:      {len(result.delays)} "
        f"({format_percent(result.zero_delay_fraction())} zero-delay)"
    )
    delays = result.delay_values()
    if delays:
        cdf = Cdf(delays)
        print(
            f"delay p50/p99:    {cdf.median():.1f} s / "
            f"{cdf.percentile(99):.1f} s"
        )
    print(f"network traffic:  {result.traffic.network_total_mib():,.0f} MiB")
    print(f"migrations:       {result.counters}")
    if not config.faults.is_null:
        print(f"fault profile:    {config.faults.name}")
        print(f"faults:           {result.faults}")
    if chart:
        from repro.analysis import sparkline

        print()
        print("active VMs   ", sparkline(result.active_vms, width=72))
        print("powered hosts", sparkline(
            [float(count) for count in result.powered_hosts], width=72
        ))
        print("              00:00" + " " * 28 + "12:00" + " " * 29 + "24:00")


def _print_zone_table(zoned) -> None:
    """Per-zone shares and shard outcomes (``--zones`` > 1 only).

    Deliberately omits worker attribution (``RunOutcome.worker`` is a
    pid): which process ran which shard is scheduling-dependent, and the
    report must stay byte-identical for a given seed.
    """
    partition = zoned.partition
    rows = []
    for budget, outcome in zip(zoned.budgets, zoned.zone_outcomes):
        homes = len(partition.home_host_ids[budget.zone])
        cons = len(partition.consolidation_host_ids[budget.zone])
        if outcome is None:
            rows.append((budget.zone, homes, cons, 0, "-", "-",
                         f"{budget.share_w:.0f}", "-", "empty"))
            continue
        result = outcome.result
        rows.append((
            budget.zone, homes, cons, homes * partition.vms_per_host,
            format_percent(result.savings_fraction),
            f"{result.energy.managed_wh:.0f}",
            f"{budget.share_w:.0f}",
            f"{budget.mean_power_w:.0f}",
            f"{budget.utilization:.0%}",
        ))
    print()
    print(format_table(
        ["zone", "homes", "cons", "VMs", "savings", "managed Wh",
         "share W", "mean W", "util"],
        rows,
    ))
    if zoned.budget_w is not None:
        over = [b.zone for b in zoned.budgets if not b.within_budget]
        status = (
            "all zones within budget" if not over
            else f"over budget: zones {over}"
        )
        print(f"budget:           {zoned.budget_w:.0f} W across "
              f"{zoned.zones} zones ({status})")


def _resolve_cli_policy(args: argparse.Namespace):
    """The policy named by ``--policy`` (plus ``--gamma``, if given)."""
    name = args.policy
    gamma = getattr(args, "gamma", None)
    if gamma is not None:
        if name.lower() != "gammarobust":
            raise ConfigError("--gamma only applies to --policy GammaRobust")
        name = f"GammaRobust@{gamma}"
    return policy_by_name(name)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = FarmConfig(
        home_hosts=args.home_hosts,
        consolidation_hosts=args.consolidation_hosts,
        vms_per_host=args.vms_per_host,
        faults=fault_profile_by_name(args.fault_profile),
    )
    policy = _resolve_cli_policy(args)
    if args.zones > 1 and (args.week or args.runs > 1):
        print("--zones shards a single day: drop --week and --runs",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        if args.week or args.runs > 1:
            print("--trace records a single day: drop --week and --runs",
                  file=sys.stderr)
            return 2
        _check_output_path(args.trace, "trace")
        from repro.obs import RecordingTracer

        tracer = RecordingTracer()
    if args.week:
        from repro.farm import simulate_week

        week = simulate_week(config, policy, seed=args.seed)
        print(f"policy:           {policy.name} (calendar week)")
        print(f"weekly savings:   {format_percent(week.savings_fraction)}")
        print(f"energy saved:     {week.saved_kwh:.1f} kWh "
              f"(~{week.projected_annual_kwh():.0f} kWh/year)")
        for label, results in (
            ("weekday", week.weekday_results),
            ("weekend", week.weekend_results),
        ):
            mean = sum(r.savings_fraction for r in results) / len(results)
            print(f"  {label} days:   {format_percent(mean)} mean savings "
                  f"over {len(results)} days")
        return 0
    if args.runs > 1:
        return _simulate_repetitions(config, policy, args)
    zoned = None
    if tracer is not None and args.zones == 1:
        # Full-fidelity trace: the unsharded simulator streams every
        # simulation event into the tracer in-process.
        result = simulate_day(
            config, policy, _day_type(args.day), seed=args.seed,
            tracer=tracer,
        )
    else:
        # The sharded pipeline; a 1-zone partition is the identity
        # transform, so this prints byte-identically to the unsharded
        # simulator (golden-tested).  With a tracer and > 1 zone only
        # the controller's zone-tagged events are recorded — shards run
        # in worker processes.
        from repro.farm import simulate_zoned_day

        zoned = simulate_zoned_day(
            config, policy, _day_type(args.day),
            zones=args.zones, seed=args.seed,
            runner=_make_runner(args.workers),
            budget_w=args.budget_w, tracer=tracer,
        )
        result = zoned.aggregate
    _print_day_summary(result, config, args.chart)
    if zoned is not None and args.zones > 1:
        _print_zone_table(zoned)
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        if args.trace_format == "chrome":
            count = write_chrome_trace(tracer.events, args.trace)
        else:
            count = write_jsonl(tracer.events, args.trace)
        print(f"trace:            {count} events -> {args.trace} "
              f"({args.trace_format})")
    return 0


def _simulate_repetitions(
    config: FarmConfig, policy, args: argparse.Namespace
) -> int:
    from statistics import mean, pstdev

    from repro.farm import repetition_specs

    runner = _make_runner(args.workers)
    specs = repetition_specs(
        config, policy, _day_type(args.day), runs=args.runs,
        base_seed=args.seed,
    )
    outcomes = runner.run(specs)
    rows = [
        (outcome.spec.seed,
         format_percent(outcome.result.savings_fraction),
         f"{outcome.wall_time_s:.2f}",
         outcome.worker,
         "hit" if outcome.ensemble_cached else "miss")
        for outcome in outcomes
    ]
    print(format_table(
        ["seed", "savings", "wall (s)", "worker", "ensemble cache"], rows
    ))
    savings = [outcome.result.savings_fraction for outcome in outcomes]
    spread = pstdev(savings) if len(savings) > 1 else 0.0
    print(f"\nmean savings:     {format_percent(mean(savings))} "
          f"(+/- {format_percent(spread)}, n={len(savings)})")
    print(f"timing:           {runner.last_summary}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.farm import consolidation_host_sweep, gamma_sweep

    try:
        counts = tuple(
            int(part) for part in args.consolidation_counts.split(",") if part
        )
    except ValueError:
        print(f"bad --consolidation-counts {args.consolidation_counts!r}; "
              "expected e.g. 2,4,6", file=sys.stderr)
        return 2
    if not counts:
        print("--consolidation-counts must name at least one count",
              file=sys.stderr)
        return 2
    config = FarmConfig(
        home_hosts=args.home_hosts,
        consolidation_hosts=counts[0],
        vms_per_host=args.vms_per_host,
        faults=fault_profile_by_name(args.fault_profile),
    )
    policies = (
        list(ALL_POLICIES) if args.policy == "all"
        else [policy_by_name(args.policy)]
    )
    runner = _make_runner(args.workers)
    if args.gamma is not None:
        try:
            gammas = tuple(
                int(part) for part in args.gamma.split(",") if part
            )
        except ValueError:
            print(f"bad --gamma {args.gamma!r}; expected e.g. 0,1,2",
                  file=sys.stderr)
            return 2
        if not gammas:
            print("--gamma must name at least one Γ value", file=sys.stderr)
            return 2
        rows_by_name = gamma_sweep(
            config, gammas, _day_type(args.day), baselines=policies,
            runs=args.runs, base_seed=args.seed, runner=runner,
        )
        print(format_table(
            ["policy", f"savings ({counts[0]} cons hosts)"],
            [(name, f"{format_percent(point.mean_savings)}"
                    f"±{format_percent(point.std_savings)}")
             for name, point in rows_by_name],
        ))
        print(f"\ntiming: {runner.last_summary}")
        return 0
    sweep = consolidation_host_sweep(
        config, policies, _day_type(args.day),
        consolidation_counts=counts, runs=args.runs, base_seed=args.seed,
        runner=runner,
    )
    rows = []
    for policy_name, series in sweep.items():
        row = [policy_name]
        for _count, point in series:
            row.append(f"{format_percent(point.mean_savings)}"
                       f"±{format_percent(point.std_savings)}")
        rows.append(row)
    headers = ["policy"] + [f"{count} cons" for count in counts]
    print(format_table(headers, rows))
    print(f"\ntiming: {runner.last_summary}")
    return 0


def _cmd_micro(args: argparse.Namespace) -> int:
    name = args.table
    if name == "table1":
        from repro.prototype import measure_energy_profiles

        rows = [
            (r.device, r.state,
             f"{r.time_s:.1f}" if r.time_s else "N/A", f"{r.power_w:.1f}")
            for r in measure_energy_profiles()
        ]
        print(format_table(["Device", "State", "Time (s)", "Power (W)"], rows))
    elif name == "fig1":
        from repro.pagesim import (
            DESKTOP_PROFILE, WEB_PROFILE, DATABASE_PROFILE,
        )

        rows = []
        for minutes in (5, 15, 30, 45, 60):
            t = minutes * 60.0
            rows.append(
                (minutes,) + tuple(
                    f"{p.unique_mib(t):.1f}"
                    for p in (DESKTOP_PROFILE, WEB_PROFILE, DATABASE_PROFILE)
                )
            )
        print(format_table(
            ["Idle minutes", "Desktop MiB", "Web MiB", "Database MiB"], rows
        ))
    elif name == "fig2":
        from repro.pagesim import (
            DATABASE_PROFILE, WEB_PROFILE, IdleAccessModel,
            analyze_sleep, merge_request_streams,
        )

        rng = random.Random(args.seed)
        horizon = 6 * 3600.0
        single = IdleAccessModel(DATABASE_PROFILE, rng).request_times(horizon)
        many = merge_request_streams(
            [IdleAccessModel(DATABASE_PROFILE, rng).request_times(horizon)
             for _ in range(5)]
            + [IdleAccessModel(WEB_PROFILE, rng).request_times(horizon)
               for _ in range(5)]
        )
        print("1 VM :", analyze_sleep(single, horizon))
        print("10 VM:", analyze_sleep(many, horizon))
    elif name in ("fig5", "traffic"):
        from repro.prototype import ConsolidationMicrobench

        report = ConsolidationMicrobench().run()
        if name == "fig5":
            rows = [(label, f"{value:.1f}")
                    for label, value in report.rows().items()]
            print(format_table(["Operation", "Latency (s)"], rows))
        else:
            rows = [
                ("full migration", f"{report.full_migration_traffic_mib:.0f}"),
                ("partial descriptor", f"{report.descriptor_mib:.1f}"),
                ("on-demand pages", f"{report.on_demand_mib:.1f}"),
                ("reintegration dirty", f"{report.reintegration_mib:.1f}"),
            ]
            print(format_table(["Transfer", "Volume (MiB)"], rows))
    elif name == "fig6":
        from repro.prototype import startup_latency_table
        from repro.prototype.apps import prefetch_alternative_s

        rows = [
            (entry.application, f"{entry.full_vm_s:.1f}",
             f"{entry.partial_vm_s:.1f}", f"{entry.slowdown:.0f}x")
            for entry in startup_latency_table().values()
        ]
        print(format_table(
            ["Application", "Full VM (s)", "Partial VM (s)", "Slowdown"], rows
        ))
        print(f"\npre-fetching the whole VM instead: "
              f"{prefetch_alternative_s():.1f} s")
    elif name == "gamma":
        print(render_gap_report(oracle_gap_report()))
    else:
        print(f"unknown micro table {name!r}", file=sys.stderr)
        return 2
    return 0


def _read_report(path: str) -> dict:
    """A perfbench report read and validated before any case runs."""
    from repro.perfbench import load_report, validate_report

    try:
        report = load_report(path)
        validate_report(report)
    except (OSError, ValueError, ConfigError) as error:
        raise _input_error(path, error) from error
    return report


def _cmd_perfbench(args: argparse.Namespace) -> int:
    import time

    from repro.perfbench import (
        attach_baseline,
        check_regression,
        render_case_table,
        run_perfbench,
        validate_limit,
        validate_report,
        write_report,
    )

    _check_output_path(args.out, "report")
    validate_limit(args.check_limit)
    baseline = _read_report(args.baseline) if args.baseline else None
    committed = _read_report(args.check) if args.check else None
    # The perfbench package sits inside the DET checker scope, so it
    # never reads the wall clock itself; the CLI injects it here.
    clock = time.perf_counter
    profile_top = 0 if (args.quick or args.no_profile) else args.profile_top
    report, profile_text = run_perfbench(
        clock, quick=args.quick, profile_top=profile_top
    )
    if baseline is not None:
        report = attach_baseline(report, baseline)
    validate_report(report)
    write_report(report, args.out)
    print(render_case_table(report))
    print(f"\nwrote {args.out}")
    if profile_text:
        print()
        print(profile_text, end="")
    if committed is not None:
        failures = check_regression(report, committed, limit=args.check_limit)
        if failures:
            for failure in failures:
                print(f"perf regression: {failure}", file=sys.stderr)
            return 1
        print(f"regression gate vs {args.check}: OK "
              f"(limit {args.check_limit}x)")
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.traces import read_traces_json, write_traces_json

    if args.action == "generate":
        _check_output_path(args.out, "traces")
        ensemble = generate_ensemble(
            args.count, _day_type(args.day), seed=args.seed
        )
        writer = (
            write_traces_json if args.out.endswith(".json")
            else write_traces_csv
        )
        writer(args.out, list(ensemble))
        print(f"wrote {len(ensemble)} user-days to {args.out}")
    else:
        reader = (
            read_traces_json if args.file.endswith(".json")
            else read_traces_csv
        )
        try:
            traces = reader(args.file)
        except (OSError, UnicodeDecodeError) as error:
            raise _input_error(args.file, error) from error
        if not traces:
            raise TraceFormatError(f"{args.file}: no traces found")
        ensemble = TraceEnsemble(traces[0].day_type, tuple(traces))
        print(compute_ensemble_stats(ensemble))
    return 0


def _equiv_config(args: argparse.Namespace) -> FarmConfig:
    return FarmConfig(
        home_hosts=args.home_hosts,
        consolidation_hosts=args.consolidation_hosts,
        vms_per_host=args.vms_per_host,
    )


def _cmd_equiv(args: argparse.Namespace) -> int:
    """``equiv selftest|baseline|compare`` — the equivalence battery."""
    import json

    from repro.equiv import (
        BatteryConfig,
        baseline_config,
        build_baseline,
        compare_to_baseline,
        read_baseline,
        run_selftest,
        write_baseline,
    )

    if args.action != "baseline" and args.report:
        _check_output_path(args.report, "report")
    runner = _make_runner(args.workers)
    if args.action == "selftest":
        mutants = args.mutants.split(",") if args.mutants else None
        report = run_selftest(
            _equiv_config(args),
            args.policy,
            _day_type(args.day),
            root_seed=args.seed,
            ensemble_size=args.ensemble_size,
            battery_config=BatteryConfig(family_alpha=args.alpha),
            mutants=mutants,
            runner=runner,
        )
        print(report.render())
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(report.as_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.report}")
        return 0 if report.passed else 1
    if args.action == "baseline":
        _check_output_path(args.out, "baseline")
        payload = build_baseline(
            _equiv_config(args),
            args.policies.split(","),
            _day_type(args.day),
            root_seed=args.seed,
            ensemble_size=args.ensemble_size,
            runner=runner,
        )
        write_baseline(args.out, payload)
        print(
            f"wrote baseline for {len(payload['policies'])} policies "
            f"x {payload['ensemble_size']} seeds to {args.out}"
        )
        return 0
    # compare: certify the current engine against a committed baseline,
    # on the farm, day and seeds the baseline records.
    try:
        payload = read_baseline(args.baseline)
    except (OSError, ValueError, ConfigError) as error:
        raise _input_error(args.baseline, error) from error
    report = compare_to_baseline(
        payload,
        baseline_config(payload),
        args.policy,
        battery_config=BatteryConfig(family_alpha=args.alpha),
        runner=runner,
    )
    print(report.render(verbose=args.verbose))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}")
    return 0 if report.equivalent else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import read_jsonl, timeline_summary, validate_chrome_trace

    try:
        if args.action == "summarize":
            report = timeline_summary(read_jsonl(args.file))
        elif args.file.endswith(".jsonl"):
            events = read_jsonl(args.file)
            report = f"OK: {len(events)} JSONL trace events in {args.file}"
        else:
            try:
                with open(args.file, "r", encoding="utf-8") as handle:
                    count = validate_chrome_trace(json.load(handle))
            except (TraceFormatError, ValueError) as error:
                # JSON, codec and schema errors name no file.
                raise TraceFormatError(f"{args.file}: {error}") from None
            report = f"OK: {count} Chrome trace events in {args.file}"
    except (TraceFormatError, OSError) as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as error:
        # The codec names the offending byte but not the file.
        print(f"invalid trace: {args.file}: {error}", file=sys.stderr)
        return 1
    try:
        print(report)
    except BrokenPipeError:
        pass  # downstream pager closed early (e.g. `| head`)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oasis-sim",
        description="Oasis (EuroSys 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one trace-driven day")
    simulate.add_argument(
        "--policy", default="FulltoPartial", choices=policy_names(),
    )
    simulate.add_argument(
        "--gamma", type=int, default=None, metavar="N",
        help="Γ for --policy GammaRobust: plan each host as if its N "
             "spikiest consolidated VMs hit their demand-interval "
             "maximum simultaneously",
    )
    simulate.add_argument(
        "--day", default="weekday", choices=["weekday", "weekend"]
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--runs", type=int, action=_PositiveInt, default=1,
        help="independent repetitions (fresh trace draw per run)",
    )
    simulate.add_argument(
        "--workers", type=int, action=_PositiveInt, default=1,
        help="worker processes for --runs > 1 or --zones > 1 (1 = serial)",
    )
    simulate.add_argument(
        "--zones", type=int, action=_PositiveInt, default=1,
        help="shard the farm into this many availability zones "
             "(1 = byte-identical to the unsharded simulator)",
    )
    simulate.add_argument(
        "--budget-w", type=float, default=None, metavar="WATTS",
        help="farm power budget carved into per-zone shares "
             "(proportional to peak demand; reported per zone)",
    )
    simulate.add_argument(
        "--week", action="store_true",
        help="simulate a calendar week (5 weekdays + 2 weekend days)",
    )
    simulate.add_argument(
        "--chart", action="store_true",
        help="render Figure 7-style sparklines of the day",
    )
    simulate.add_argument("--home-hosts", type=int, default=30)
    simulate.add_argument("--consolidation-hosts", type=int, default=4)
    simulate.add_argument("--vms-per-host", type=int, default=30)
    simulate.add_argument(
        "--fault-profile", default="none", choices=list(FAULT_PROFILE_NAMES),
        help="inject failures (migration aborts, failed wakes, memory-server "
             "crashes, page timeouts) at the named rates",
    )
    simulate.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured event trace of the day to PATH",
    )
    simulate.add_argument(
        "--trace-format", default="jsonl", choices=["jsonl", "chrome"],
        help="trace file format: line-delimited JSON records, or Chrome "
             "trace_event JSON for Perfetto / chrome://tracing",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = sub.add_parser(
        "sweep",
        help="consolidation-host sweep (Figure 8 shape), optionally parallel",
    )
    sweep.add_argument(
        "--policy", default="all",
        choices=["all"] + policy_names(),
        help="baseline policy (or 'all' for the paper's four)",
    )
    sweep.add_argument(
        "--gamma", default=None, metavar="G1,G2",
        help="comma-separated Γ values: run GammaRobust@Γ for each, "
             "next to the --policy baselines, at the first "
             "--consolidation-counts shape",
    )
    sweep.add_argument(
        "--fault-profile", default="none", choices=list(FAULT_PROFILE_NAMES),
        help="inject failures at the named rates in every sweep run",
    )
    sweep.add_argument(
        "--day", default="weekday", choices=["weekday", "weekend"]
    )
    sweep.add_argument("--runs", type=int, action=_PositiveInt, default=2)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--workers", type=int, action=_PositiveInt, default=1,
        help="worker processes for the sweep (1 = serial)",
    )
    sweep.add_argument(
        "--consolidation-counts", default="2,4",
        help="comma-separated consolidation-host counts to sweep",
    )
    sweep.add_argument("--home-hosts", type=int, default=30)
    sweep.add_argument("--vms-per-host", type=int, default=30)
    sweep.set_defaults(handler=_cmd_sweep)

    micro = sub.add_parser("micro", help="print a micro-benchmark table")
    micro.add_argument(
        "table",
        choices=["table1", "fig1", "fig2", "fig5", "fig6", "traffic",
                 "gamma"],
    )
    micro.add_argument("--seed", type=int, default=0)
    micro.set_defaults(handler=_cmd_micro)

    perfbench = sub.add_parser(
        "perfbench",
        help="time simulate_day and sweep throughput; write BENCH JSON",
    )
    perfbench.add_argument(
        "--quick", action="store_true",
        help="tiny CI subset of cases (seconds instead of minutes)",
    )
    perfbench.add_argument(
        "--out", default="BENCH_hotpath.json",
        help="where to write the sorted-key JSON report",
    )
    perfbench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="earlier perfbench report to embed as the 'before' section "
             "(adds per-case speedup ratios)",
    )
    perfbench.add_argument(
        "--check", default=None, metavar="PATH",
        help="committed report to gate against; exit 1 if any shared "
             "case regressed more than --check-limit or changed its "
             "fingerprint",
    )
    perfbench.add_argument(
        "--check-limit", type=float, default=2.5,
        help="slowdown factor tolerated by --check (default 2.5)",
    )
    perfbench.add_argument(
        "--profile-top", type=int, default=15,
        help="rows in the cProfile tottime table (full mode only)",
    )
    perfbench.add_argument(
        "--no-profile", action="store_true",
        help="skip the cProfile pass",
    )
    perfbench.set_defaults(handler=_cmd_perfbench)

    traces = sub.add_parser("traces", help="generate or inspect trace files")
    traces_sub = traces.add_subparsers(dest="action", required=True)
    generate = traces_sub.add_parser("generate")
    generate.add_argument("--count", type=int, default=900)
    generate.add_argument("--day", default="weekday",
                          choices=["weekday", "weekend"])
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_traces)
    stats = traces_sub.add_parser("stats")
    stats.add_argument("--file", required=True)
    stats.set_defaults(handler=_cmd_traces)

    trace = sub.add_parser(
        "trace", help="summarize or validate a recorded event trace"
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="print a text timeline summary of a JSONL trace"
    )
    summarize.add_argument("file")
    summarize.set_defaults(handler=_cmd_trace)
    validate = trace_sub.add_parser(
        "validate",
        help="check a trace file (JSONL, or Chrome trace_event JSON)",
    )
    validate.add_argument("file")
    validate.set_defaults(handler=_cmd_trace)

    equiv = sub.add_parser(
        "equiv",
        help="statistical engine-equivalence battery (DESIGN.md §16)",
    )
    equiv_sub = equiv.add_subparsers(dest="action", required=True)

    def _equiv_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, action=_PositiveInt,
                       default=1,
                       help="worker processes for reference ensembles")

    def _equiv_alpha(p: argparse.ArgumentParser) -> None:
        """Only the commands that run the battery take its budget."""
        p.add_argument("--alpha", type=float, default=0.05,
                       help="family-wise false-rejection budget")

    def _equiv_ensemble(p: argparse.ArgumentParser) -> None:
        """The farm, day and seeds to run; ``compare`` reads these from
        its baseline instead."""
        _equiv_common(p)
        p.add_argument("--day", default="weekday",
                       choices=["weekday", "weekend"])
        p.add_argument("--seed", type=int, default=2016,
                       help="root seed; member seeds are derived from it")
        p.add_argument("--ensemble-size", type=int, default=20)
        p.add_argument("--home-hosts", type=int, default=4)
        p.add_argument("--consolidation-hosts", type=int, default=2)
        p.add_argument("--vms-per-host", type=int, default=4)

    selftest = equiv_sub.add_parser(
        "selftest",
        help="prove the battery rejects every registered mutant and "
             "accepts the reference across disjoint seeds",
    )
    _equiv_ensemble(selftest)
    _equiv_alpha(selftest)
    selftest.add_argument("--policy", default="FulltoPartial")
    selftest.add_argument(
        "--mutants", default=None,
        help="comma-separated mutant names (default: all registered)",
    )
    selftest.add_argument("--report", default=None, metavar="PATH",
                          help="also write the full JSON report here")
    selftest.set_defaults(handler=_cmd_equiv)

    baseline = equiv_sub.add_parser(
        "baseline",
        help="capture reference ensembles as a committed baseline JSON",
    )
    _equiv_ensemble(baseline)
    baseline.add_argument(
        "--policies",
        default="OnlyPartial,Default,FulltoPartial,NewHome,GammaRobust@1",
        help="comma-separated policy names to capture",
    )
    baseline.add_argument("--out", required=True)
    baseline.set_defaults(handler=_cmd_equiv)

    compare = equiv_sub.add_parser(
        "compare",
        help="certify the current engine against a committed baseline "
             "(paired on the baseline's farm, day and pinned seeds)",
    )
    _equiv_common(compare)
    _equiv_alpha(compare)
    compare.add_argument("--baseline", required=True)
    compare.add_argument("--policy", default="FulltoPartial")
    compare.add_argument("--verbose", action="store_true",
                         help="print every metric verdict, not just failures")
    compare.add_argument("--report", default=None, metavar="PATH",
                         help="also write the full JSON report here")
    compare.set_defaults(handler=_cmd_equiv)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits on usage errors (2) and --help (0); hand the
        # status back like every other outcome.
        return int(stop.code or 0)
    try:
        return args.handler(args)
    except (ConfigError, TraceFormatError, WorkerLostError) as error:
        print(str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
