"""The repository benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 e2ebench/run.py --workload paper-rack --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``e2ebench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported
from ``src/`` under the current directory; without it the benchmark
exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

perf = time.perf_counter

#: Set-up repetitions before the timed passes, and again after them.
SETUP_REPEATS = 4
#: Layer self times must cover the traced wall time to within this share.
ACCOUNTING_TOLERANCE = 0.05
OUT_DIR = ".bench_out"

#: Imports the modules the workloads use in a fresh interpreter and
#: prints how long the imports took, so interpreter start-up is not
#: counted (``repro.policies`` is otherwise loaded lazily on first
#: strategy lookup).
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); "
    "started = time.perf_counter(); "
    "import repro.core.strategies, repro.equiv, repro.farm, "
    "repro.farm.runner, repro.farm.validate, repro.farm.zones, "
    "repro.policies, repro.traces; "
    "print(time.perf_counter() - started)"
)

#: name -> (unit, better, kind, in the JSON result).  The four left out
#: of the JSON are printed only: fail_frac is 0 on a healthy tree (its
#: numerator and denominator are the result's ``failed``/``attempted``);
#: savings_pct is near 0 on the 16-VM equiv farm, so a relative bound
#: on it is meaningless there, and the JSON carries energy_pct
#: (= 100 - savings_pct) instead; delay_p99_s sits on the fixed wake
#: latency and does not vary with the seed; paper_gap_pp exists on
#: paper-rack alone.
END_TO_END = {
    "vm_days_per_s": ("VM-day/s", "higher", "host", True),
    "day_s_p50": ("s", "lower", "host", True),
    "day_s_tail": ("s", "lower", "host", True),
    "setup_s": ("s", "lower", "host", True),
    "peak_rss_mib": ("MiB", "lower", "host", True),
    "fail_frac": ("ratio", "lower", "both", False),
    "savings_pct": ("%", "higher", "simulated", False),
    "energy_pct": ("%", "lower", "simulated", True),
    "zero_delay_frac": ("ratio", "higher", "simulated", True),
    "delay_p99_s": ("s", "lower", "simulated", False),
    "traffic_mib_per_vm_day": ("MiB", "lower", "simulated", True),
    "paper_gap_pp": ("pp", "lower", "simulated", False),
}

#: Per-layer metric -> unit (all of them in the traced run's JSON).
PER_LAYER = {
    "traces.generate.calls": "count",
    "traces.generate.s": "s",
    "traces.users_per_s": "1/s",
    "traces.edges_compile.s": "s",
    "traces.edges": "count",
    "core.plan_consolidation.calls": "count",
    "core.plan_consolidation.s": "s",
    "core.plan_exchanges.calls": "count",
    "core.plan_exchanges.s": "s",
    "core.decide_activation.calls": "count",
    "core.decide_activation.s": "s",
    "core.reroute_activation.calls": "count",
    "core.vacated_hosts": "count",
    "core.vacate_yield": "ratio",
    "policies.gamma_plan.calls": "count",
    "policies.gamma_plan.s": "s",
    "farm.init.s": "s",
    "farm.run.s": "s",
    "farm.self.s": "s",
    "farm.us_per_event": "us",
    "simulator.scheduled": "count",
    "simulator.events": "count",
    "planes.ledger.calls": "count",
    "planes.ledger.s": "s",
    "migration.reserve.calls": "count",
    "migration.reserve.s": "s",
    "runner.batch.s": "s",
    "runner.worker_utilization": "ratio",
    "runner.pool_overhead.s": "s",
    "runner.cache_hit_ratio": "ratio",
    "zones.partition.s": "s",
    "zones.controller.s": "s",
    "zones.aggregate.s": "s",
    "zones.shard_imbalance": "ratio",
    "equiv.fingerprint.s": "s",
    "equiv.battery.s": "s",
    "equiv.rejections": "count",
    "sim.full_migrations": "count",
    "sim.partial_migrations": "count",
    "sim.reintegrations": "count",
    "sim.suspends": "count",
    "sim.home_wakeups": "count",
    "traces.self.s": "s",
    "core.self.s": "s",
    "policies.self.s": "s",
    "planes.self.s": "s",
    "migration.self.s": "s",
    "runner.self.s": "s",
    "zones.self.s": "s",
    "equiv.self.s": "s",
    "bench.self.s": "s",
    "bench.unattributed_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.missing_targets": "count",
}

SELF_LAYERS = ("traces", "core", "policies", "planes", "migration",
               "runner", "zones", "equiv", "bench")


def bootstrap(root: str) -> None:
    """Put ``<root>/src`` first on ``sys.path``, or stop."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no repro sources under {src}; run from the root of "
            "a repository checkout"
        )
    sys.path.insert(0, src)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)


def tail(by_pass):
    """(value, percentile, n) of the per-day samples of each pass.

    The percentile is the highest one with at least ten samples beyond
    it in one pass, taken over the pooled samples.  When a pass has ten
    samples or fewer it is each pass's maximum, averaged over the
    passes.  Neither figure moves with the number of passes a run fits.
    """
    per_pass = len(by_pass[0])
    n = sum(len(days) for days in by_pass)
    if per_pass <= 10:
        return statistics.mean(max(days) for days in by_pass), 100.0, n
    ordered = sorted(s for days in by_pass for s in days)
    level = (per_pass - 10) / per_pass
    return ordered[math.ceil(level * n) - 1], 100.0 * level, n


def p99(counts):
    """p99 of the values counted in ``counts`` (value -> count)."""
    rank = max(1, math.ceil(0.99 * sum(counts.values())))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value


def measure_setup(workload, imports, in_process):
    """Time ``SETUP_REPEATS`` imports in a fresh interpreter and as many
    in-process set-ups, alternating, and append the times to the lists.

    ``main`` calls it before and after the timed passes, so the medians
    span the run rather than its first seconds.  Both are kept at
    reference speed, like every host time (``workloads.Stopwatch``).
    """
    from workloads import Stopwatch

    for _ in range(SETUP_REPEATS):
        with Stopwatch() as watch:
            probe = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE],
                check=True, capture_output=True, text=True,
            )
        imports.append(float(probe.stdout) * watch.scale)
        with Stopwatch() as watch:
            workload.setup()
        in_process.append(watch.elapsed * watch.scale)


def run_passes(workload, seconds, tracer, recorder):
    """The workload's warm-up, then a closed loop of whole passes, at
    least one.  Another pass starts while it would end, if it took as
    long as the longest so far, less than half of it past ``seconds``, so
    the timed part of a run is ``seconds`` give or take half a pass.
    With a tracer, the passes alternate untraced and traced (at least one
    of each).  Returns the warm-up and the passes.

    The warm-up is checked like a pass, but its host times are not
    reported.
    """
    gc.collect()
    warm = workload.warm_up(recorder)
    passes = []
    started = perf()
    longest = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        pass_started = perf()
        if traced:
            tracer.install()
        try:
            result = workload.run_pass(recorder)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, result))
        longest = max(longest, perf() - pass_started)
        enough = tracer is None or len(passes) >= 2
        if enough and perf() - started + longest / 2 > seconds:
            return warm, passes


def check_repeats(warm, passes):
    """Every pass must reproduce the first pass's fingerprints, and the
    warm-up the first of them."""
    reference = passes[0][1].fingerprints
    mismatched = 0
    for result in [warm] + [result for _traced, result in passes[1:]]:
        expected = reference[:len(result.fingerprints)] \
            if result is warm else reference
        if result.fingerprints != expected:
            mismatched += max(1, sum(
                1 for a, b in zip(result.fingerprints, expected) if a != b
            ))
    return mismatched


def end_to_end(workload, passes, setup, failed, attempted):
    untraced = [result for traced, result in passes if not traced]
    day_s = [s for result in untraced for s in result.day_s]
    timed_s = sum(result.timed_s for result in untraced)
    raw_day_s = [s for result in untraced for s in result.raw_day_s]
    raw_s = sum(result.raw_timed_s for result in untraced)
    vm_days = sum(result.vm_days for result in untraced)
    tally = passes[0][1].tally
    tail_value, tail_pct, tail_n = (
        tail([result.day_s for result in untraced]) if day_s
        else (0.0, 0.0, 0)
    )
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    delays = tally.delays
    values = {
        "vm_days_per_s": vm_days / timed_s if timed_s > 0 else 0.0,
        "day_s_p50": statistics.median(day_s) if day_s else 0.0,
        "day_s_tail": tail_value,
        "setup_s": setup[0] + setup[1],
        "peak_rss_mib": max(own_kib, child_kib) / 1024.0,
        "fail_frac": failed / attempted if attempted else 1.0,
        "savings_pct": (
            100.0 * statistics.mean(tally.savings) if tally.savings else 0.0
        ),
        "energy_pct": (
            100.0 * (1.0 - statistics.mean(tally.savings))
            if tally.savings else 0.0
        ),
        "zero_delay_frac": (
            sum(n for d, n in delays.items() if d <= 1e-9)
            / sum(delays.values())
            if delays else 1.0
        ),
        "delay_p99_s": p99(delays) if delays else 0.0,
        "traffic_mib_per_vm_day": (
            tally.traffic_mib / passes[0][1].vm_days
            if passes[0][1].vm_days else 0.0
        ),
    }
    notes = [
        f"day_s_tail is p{tail_pct:.1f} of n={tail_n} per-day samples"
        + (" (the mean of each pass's maximum: a pass has fewer than 11)"
           if tail_pct == 100.0 else ""),
        f"setup_s = imports {setup[0]:.4f} s (median of "
        f"{2 * SETUP_REPEATS} fresh interpreters) + in-process "
        f"{setup[1]:.4f} s (median of {2 * SETUP_REPEATS})",
        f"peak_rss_mib: benchmark process {own_kib / 1024.0:.1f} MiB, "
        f"largest child {child_kib / 1024.0:.1f} MiB",
        f"{len(untraced)} pass(es) after the warm-up, {vm_days} VM-days in "
        f"{timed_s:.3f} timed host seconds at reference speed",
        "as read on the clock: vm_days_per_s "
        f"{vm_days / raw_s if raw_s > 0 else 0.0:.6f}, day_s_p50 "
        f"{statistics.median(raw_day_s) if raw_day_s else 0.0:.6f} s, "
        f"{raw_s:.3f} timed host seconds (seconds at reference speed per "
        f"clock second: {timed_s / raw_s if raw_s > 0 else 0.0:.4f})",
    ]
    if workload.name == "paper-rack":
        from workloads import PAPER_SAVINGS_PCT
        gaps = [
            abs(100.0 * statistics.mean(tally.by_label[label]) - paper)
            for label, paper in PAPER_SAVINGS_PCT.items()
            if label in tally.by_label
        ]
        values["paper_gap_pp"] = statistics.mean(gaps)
        notes.append(
            "paper_gap_pp: mean |FulltoPartial savings - paper| over "
            "weekday (28%) and weekend (43%): "
            + ", ".join(f"{gap:.3f} pp" for gap in gaps)
        )
    return values, notes


def per_layer(tracer, passes):
    """Per-layer metrics, per traced pass."""
    recorder = tracer.recorder
    traced = [result for is_traced, result in passes if is_traced]
    untraced = [result for is_traced, result in passes if not is_traced]
    per = float(len(traced))
    stats = recorder.stats
    extra = recorder.extra

    def stat(name, index, scale=per):
        return stats.get(name, (0, 0.0, 0.0))[index] / scale

    def calls(name):
        return stat(name, 0)

    def total(name):
        return stat(name, 1)

    def own(name):
        return stat(name, 2)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    runner = {}
    for result in traced:
        for key, value in result.runner.items():
            runner[key] = runner.get(key, 0.0) + value
    layers = recorder.self_by_layer()
    roots = stat("bench.day", 1, 1.0)
    values = {
        "traces.generate.calls": calls("traces.generate"),
        "traces.generate.s": total("traces.generate"),
        "traces.users_per_s": ratio(
            extra.get("traces.users", 0.0), stat("traces.generate", 1, 1.0)
        ),
        "traces.edges_compile.s": total("traces.edges_compile"),
        "traces.edges": extra.get("traces.edges", 0.0) / per,
        "core.plan_consolidation.calls": calls("core.plan_consolidation"),
        "core.plan_consolidation.s": total("core.plan_consolidation"),
        "core.plan_exchanges.calls": calls("core.plan_exchanges"),
        "core.plan_exchanges.s": total("core.plan_exchanges"),
        "core.decide_activation.calls": calls("core.decide_activation"),
        "core.decide_activation.s": total("core.decide_activation"),
        "core.reroute_activation.calls": calls("core.reroute_activation"),
        "core.vacated_hosts": extra.get("core.vacated", 0.0) / per,
        "core.vacate_yield": ratio(
            extra.get("core.vacated", 0.0), extra.get("core.offered", 0.0)
        ),
        "policies.gamma_plan.calls": calls("policies.gamma_plan"),
        "policies.gamma_plan.s": total("policies.gamma_plan"),
        "farm.init.s": total("farm.init"),
        "farm.run.s": total("farm.run"),
        "farm.self.s": own("farm.init") + own("farm.run"),
        "farm.us_per_event": 1e6 * ratio(
            stat("farm.run", 1, 1.0), extra.get("simulator.events", 0.0)
        ),
        "simulator.scheduled": recorder.counts.get(
            "simulator.scheduled", 0
        ) / per,
        "simulator.events": extra.get("simulator.events", 0.0) / per,
        "planes.ledger.calls": calls("planes.ledger"),
        "planes.ledger.s": total("planes.ledger"),
        "migration.reserve.calls": calls("migration.reserve"),
        "migration.reserve.s": total("migration.reserve"),
        "runner.batch.s": total("runner.batch"),
        "runner.worker_utilization": ratio(
            runner.get("busy_s", 0.0), runner.get("worker_s", 0.0)
        ),
        "runner.pool_overhead.s": runner.get("pool_overhead_s", 0.0) / per,
        "runner.cache_hit_ratio": ratio(
            runner.get("cache_hits", 0.0), runner.get("runs", 0.0)
        ),
        "zones.partition.s": total("zones.partition"),
        "zones.controller.s": total("zones.controller"),
        "zones.aggregate.s": own("zones.run"),
        "zones.shard_imbalance": runner.get("shard_imbalance", 0.0) / per,
        "equiv.fingerprint.s": total("equiv.fingerprint"),
        "equiv.battery.s": total("equiv.battery"),
        "equiv.rejections": extra.get("equiv.rejections", 0.0) / per,
        "bench.unattributed_frac": ratio(layers.get("bench", 0.0), roots),
        "bench.trace_overhead_frac": ratio(
            statistics.median(r.timed_s for r in traced),
            statistics.median(r.timed_s for r in untraced),
        ) - 1.0,
        "bench.missing_targets": len(tracer.missing),
    }
    for name in ("full_migrations", "partial_migrations", "reintegrations",
                 "suspends", "home_wakeups"):
        values[f"sim.{name}"] = traced[0].tally.counters.get(name, 0)
    for layer in SELF_LAYERS:
        values[f"{layer}.self.s"] = layers.get(layer, 0.0) / per
    attributed = sum(
        seconds for layer, seconds in layers.items() if layer != "bench"
    )
    notes = [
        f"{len(traced)} traced and {len(untraced)} untraced pass(es) after "
        "the warm-up; figures are per traced pass",
        f"accounting: layer self times {attributed / per:.4f} s + "
        f"benchmark glue {layers.get('bench', 0.0) / per:.4f} s = traced "
        f"day wall {roots / per:.4f} s (tolerance "
        f"{ACCOUNTING_TOLERANCE:.0%} unattributed)",
        f"spans stored: {len(recorder.spans)}, dropped past the cap: "
        f"{recorder.dropped}",
    ]
    if values["bench.unattributed_frac"] > ACCOUNTING_TOLERANCE:
        notes.append("WARNING: unattributed time exceeds the tolerance")
    for target in tracer.missing:
        notes.append(f"MISSING target (metrics read 0): {target}")
    if extra.get("bench.hook_errors"):
        notes.append(
            f"WARNING: {extra['bench.hook_errors']:.0f} post-call hook(s) "
            "met an unexpected return shape; their counters are incomplete"
        )
    return values, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-rack", "equiv-cert", "zoned-20k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    bootstrap(root)
    import layertrace
    import repro
    import workloads

    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(root, "src")):
        raise SystemExit(f"error: repro imported from {repro.__file__}")

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"# workload {workload.name} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    imports, in_process = [], []
    measure_setup(workload, imports, in_process)

    tracer = layertrace.LayerTracer() if args.trace else None
    recorder = tracer.recorder if tracer else layertrace.Recorder()
    warm, passes = run_passes(workload, args.seconds, tracer, recorder)
    measure_setup(workload, imports, in_process)
    setup = (statistics.median(imports), statistics.median(in_process))

    checked = [warm] + [result for _t, result in passes]
    attempted = sum(result.attempted for result in checked)
    failed = sum(result.failed for result in checked)
    mismatched = check_repeats(warm, passes)
    failed += mismatched
    for result in checked:
        for error in result.errors:
            print(f"FAILED {error}")
    if mismatched:
        print(f"FAILED {mismatched} day(s) differ from the first pass")

    first = passes[0][1]
    for line in first.fingerprints:
        print(f"fp {line}")
    digest = hashlib.sha256("\n".join(first.fingerprints).encode()).hexdigest()
    print(f"fingerprint sha256 {digest} over {len(first.fingerprints)} "
          "day(s)")

    values, notes = end_to_end(workload, passes, setup, failed, attempted)
    print(f"{'metric':<24} {'value':>16} {'unit':<9} {'better':<7} kind")
    for name, (unit, better, kind_, _json) in END_TO_END.items():
        if name in values:
            print(f"{name:<24} {values[name]:>16.6f} {unit:<9} {better:<7} "
                  f"{kind_}")
    for note in notes:
        print(f"# {note}")

    if tracer is not None:
        layer_values, layer_notes = per_layer(tracer, passes)
        for name, unit in PER_LAYER.items():
            print(f"{name:<32} {layer_values[name]:>16.6f} {unit}")
        for note in layer_notes:
            print(f"# {note}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{args.seed}.jsonl"
        )
        tracer.recorder.write(path)
        print(f"# spans written to {path}")
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _b, _k, in_json) in END_TO_END.items()
            if in_json
        }
    correct = failed == 0 and bool(first.fingerprints)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
