"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload is a closed loop over a fixed, seed-derived set of
day-runs (one *pass*): every day starts after the previous one ends.
The benchmark repeats passes until its time is up.  Only the program's
calls are timed; correctness checks run outside the timed regions, and
every pass after the first must reproduce the first pass's result
fingerprints byte for byte.

Host times are reported at a fixed reference speed (see ``Stopwatch``).

Import this module only after ``src`` is on ``sys.path``
(``run.bootstrap`` does that).
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import time
import traceback
from collections import Counter
from dataclasses import astuple, dataclass, field
from typing import Dict, List

from repro.core.strategies import resolve_strategy
from repro.equiv import compare_to_baseline, read_baseline
from repro.farm import FarmConfig, FarmSimulation
from repro.farm.runner import RunSpec, SweepRunner, clear_ensemble_cache
from repro.farm.validate import validate_simulation
from repro.farm.zones import simulate_zoned_day
from repro.simulator.randomness import derive_seed
from repro.traces import DayType, generate_ensemble

perf = time.perf_counter

PAPER_POLICIES = (
    "OnlyPartial", "Default", "FulltoPartial", "NewHome", "GammaRobust@3",
)
#: EXPERIMENTS.md Fig 8: FulltoPartial savings reported by the paper, %,
#: keyed by the day-run label.
PAPER_SAVINGS_PCT = {"FulltoPartial/weekday": 28.0,
                     "FulltoPartial/weekend": 43.0}

EQUIV_BASELINE = os.path.join("tests", "golden", "equiv_baseline.json")
#: The farm the committed equivalence baseline was recorded on.
EQUIV_SHAPE = dict(home_hosts=4, consolidation_hosts=2, vms_per_host=4)

SIMULATED_COUNTERS = (
    "full_migrations", "partial_migrations", "reintegrations", "suspends",
    "home_wakeups",
)

#: Host seconds are reported as they would read on a machine on which one
#: ``reference_loop`` takes this long.
REFERENCE_S = 0.004
#: Timings of the loop taken just before and again just after a region.
REFERENCE_SLICES = 4


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_loop() -> int:
    """A fixed pure-Python loop over small objects, a heap and a dict,
    the operations the simulator spends its time on.  It is not part of
    the program, so no change to the program makes it faster."""
    heap: List = []
    table: Dict[int, int] = {}
    total = 0
    for index in range(3000):
        item = _Item(index * 7919 % 1000, index)
        heapq.heappush(heap, (item.key, index, item))
        table[item.key] = table.get(item.key, 0) + item.value
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].value
    return total


def reference_slices() -> List[float]:
    """``REFERENCE_SLICES`` timings of ``reference_loop``, with the
    collector off so that the program's heap does not enter them."""
    gc.disable()
    try:
        slices = []
        for _ in range(REFERENCE_SLICES):
            started = perf()
            reference_loop()
            slices.append(perf() - started)
        return slices
    finally:
        gc.enable()


class Stopwatch:
    """Times a region in host seconds.  With ``scaled``, the reference
    loop is timed just before and just after it, outside the region.

    The benchmark's machine shares its cores with other tenants, and its
    speed drifts by a third or more within seconds to minutes.  A region
    in this process and the loop slow down together: on one fixed input,
    five 30-s runs of ``paper-rack`` spread 0.21 in host time and 0.04 at
    reference speed.  ``scale`` (``REFERENCE_S`` over the loop's median
    time) turns the region's host seconds into seconds at the reference
    speed.  Without ``scaled`` it is 1.
    """

    def __init__(self, scaled: bool = True) -> None:
        self.scaled = scaled
        self.scale = 1.0

    def __enter__(self) -> "Stopwatch":
        self._slices = reference_slices() if self.scaled else []
        self.started = perf()
        return self

    def __exit__(self, *_exc) -> bool:
        self.elapsed = perf() - self.started
        if self.scaled:
            self._slices += reference_slices()
            self.scale = REFERENCE_S / statistics.median(self._slices)
        return False


def fingerprint(label: str, result) -> str:
    """One line that changes if any headline output of a day changes."""
    return (
        f"{label} savings={result.savings_fraction!r} "
        f"managed_j={result.energy.managed_joules!r} "
        f"baseline_j={result.energy.baseline_joules!r} "
        f"counters={astuple(result.counters)!r} "
        f"traffic_mib={result.traffic.network_total_mib()!r}"
    )


@dataclass
class Tally:
    """Simulated outcomes of one pass, pooled over its day-runs."""

    savings: List[float] = field(default_factory=list)
    #: Idle→active delay -> number of transitions.  Delays take few
    #: distinct values, so a pass's tally stays small.
    delays: Counter = field(default_factory=Counter)
    traffic_mib: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    #: label -> savings fractions, for the paper-gap figure.
    by_label: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, label: str, result) -> None:
        self.savings.append(result.savings_fraction)
        self.by_label.setdefault(label, []).append(result.savings_fraction)
        self.delays.update(result.delay_values())
        self.traffic_mib += result.traffic.network_total_mib()
        for name in SIMULATED_COUNTERS:
            self.counters[name] = (
                self.counters.get(name, 0) + getattr(result.counters, name)
            )


@dataclass
class PassResult:
    """What one pass measured."""

    #: Host seconds of each timed farm-day (a zoned day counts once), at
    #: reference speed.
    day_s: List[float] = field(default_factory=list)
    #: Host seconds inside the timed regions, summed, at reference speed.
    timed_s: float = 0.0
    #: The same two as read on the clock.
    raw_day_s: List[float] = field(default_factory=list)
    raw_timed_s: float = 0.0
    vm_days: int = 0
    attempted: int = 0
    failed: int = 0
    fingerprints: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    #: Runner/zone figures taken from SweepSummary / RunOutcome.
    runner: Dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)

    def add_time(self, watch: Stopwatch, days: List[float]) -> None:
        """Add one timed region and the host seconds of its farm-days."""
        self.timed_s += watch.elapsed * watch.scale
        self.raw_timed_s += watch.elapsed
        self.day_s.extend(seconds * watch.scale for seconds in days)
        self.raw_day_s.extend(days)


def describe(error: BaseException) -> str:
    return traceback.format_exception_only(type(error), error)[-1].strip()


def add_runner_figures(figures: Dict[str, float], runner: SweepRunner,
                       outcomes) -> None:
    """Add one runner's pool overhead, utilization and cache use.

    Pool overhead is the batch wall time minus the busiest worker's
    summed run walls: what fan-out, pickling and pool start-up cost.
    """
    by_worker: Dict[str, float] = {}
    for outcome in outcomes:
        by_worker[outcome.worker] = (
            by_worker.get(outcome.worker, 0.0) + outcome.wall_time_s
        )
    batch_s = sum(summary.wall_time_s for summary in runner.summaries)
    added = {
        "pool_overhead_s": batch_s - max(by_worker.values(), default=0.0),
        "busy_s": sum(s.run_wall_total_s for s in runner.summaries),
        "worker_s": sum(s.wall_time_s * s.workers for s in runner.summaries),
        "runs": sum(s.runs for s in runner.summaries),
        "cache_hits": sum(s.ensemble_cache_hits for s in runner.summaries),
    }
    for key, value in added.items():
        figures[key] = figures.get(key, 0.0) + value


def input_seeds(seed: int, workload: str, count: int) -> List[int]:
    """The seeds of a pass's input sets, all derived from ``seed``."""
    return [derive_seed(seed, f"{workload}.{index}") for index in range(count)]


# Each workload has ``setup()`` (work done once before the first timed
# day; repeatable, because set-up is timed several times),
# ``run_pass(recorder)`` (one pass, returning a PassResult) and
# ``warm_up(recorder)`` (the untimed days run before the first pass, the
# first days of a pass, returning a PassResult).


class PaperRack:
    """Every paper policy plus Γ@3 on the paper's rack, weekday and
    weekend, serially, on ensembles built once in set-up.  A pass is
    ``INPUTS`` seed-derived input sets.  The cost of a day depends on its
    traces (Γ@3 on a weekday took 1.3 s on one input set and 2.1 s on
    another), so one set made the host times of a run move with the seed
    as much as with the machine; three sets fill one 30-s run."""

    name = "paper-rack"
    INPUTS = 3
    #: 30 home + 4 consolidation hosts × 30 VMs.
    config = FarmConfig()

    def __init__(self, seed: int) -> None:
        self.seeds = input_seeds(seed, self.name, self.INPUTS)

    def setup(self) -> None:
        self.strategies = [resolve_strategy(name) for name in PAPER_POLICIES]
        config = self.config
        self.ensembles = []
        for seed in self.seeds:
            for day_type in (DayType.WEEKDAY, DayType.WEEKEND):
                trace_seed = RunSpec(config, "Default", day_type,
                                     seed).trace_seed
                self.ensembles.append((seed, day_type, generate_ensemble(
                    config.total_vms, day_type, seed=trace_seed,
                    config=config.traces,
                )))

    def warm_up(self, recorder) -> PassResult:
        """The first input set's days, so that the timed pass starts
        with the process's heap grown."""
        return self._run(recorder, self.ensembles[:2])

    def run_pass(self, recorder) -> PassResult:
        return self._run(recorder, self.ensembles)

    def _run(self, recorder, ensembles) -> PassResult:
        out = PassResult()
        vms = self.config.total_vms
        runs = [
            (seed, day_type, ensemble, strategy)
            for seed, day_type, ensemble in ensembles
            for strategy in self.strategies
        ]
        for day, (seed, day_type, ensemble, strategy) in enumerate(runs):
            label = f"{strategy.name}/{day_type.value}"
            out.attempted += 1
            try:
                with Stopwatch() as watch, recorder.root(day):
                    sim = FarmSimulation(
                        self.config, strategy, ensemble, seed=seed
                    )
                    result = sim.run()
                validate_simulation(sim)
            except Exception as error:  # keep going: counted as failed
                out.fail(1, f"{label}: {describe(error)}")
                continue
            out.add_time(watch, [watch.elapsed])
            out.vm_days += vms
            out.tally.add(label, result)
            out.fingerprints.append(fingerprint(f"{label}/seed{seed}", result))
        return out


class EquivCert:
    """``equiv compare`` of every baseline policy against the committed
    baseline, on the serial runner; the seed only orders the policies."""

    name = "equiv-cert"
    config = FarmConfig(**EQUIV_SHAPE)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.payload = read_baseline(EQUIV_BASELINE)
        names = sorted(self.payload["policies"])
        for name in names:
            resolve_strategy(name)
        # A seeded rotation: the inputs themselves are the pinned ones.
        shift = self.seed % len(names)
        self.policies = names[shift:] + names[:shift]

    def warm_up(self, recorder) -> PassResult:
        """A whole pass (about 5 s), so that the timed passes start with
        the process's heap grown."""
        return self.run_pass(recorder)

    def run_pass(self, recorder) -> PassResult:
        out = PassResult()
        runs_per_policy = len(self.payload["seeds"])
        vms = self.config.total_vms
        # Each pass starts cold, as one `equiv compare` invocation does.
        clear_ensemble_cache()
        for day, policy in enumerate(self.policies):
            outcomes: List = []
            runner = SweepRunner(
                backend="serial",
                progress=lambda progress, sink=outcomes: sink.append(
                    progress.outcome
                ),
            )
            out.attempted += runs_per_policy
            try:
                with Stopwatch() as watch, recorder.root(day):
                    report = compare_to_baseline(
                        self.payload, self.config, policy, runner=runner
                    )
            except Exception as error:  # keep going: counted as failed
                out.fail(runs_per_policy, f"{policy}: {describe(error)}")
                continue
            if not report.equivalent:
                out.fail(runs_per_policy, (
                    f"{policy}: rejected against the committed baseline "
                    f"({len(report.failures())} failing metric(s))"
                ))
                continue
            add_runner_figures(out.runner, runner, outcomes)
            out.add_time(watch, [outcome.wall_time_s for outcome in outcomes])
            out.vm_days += vms * runs_per_policy
            for index, outcome in enumerate(outcomes):
                label = f"{policy}/seed{index}"
                out.tally.add(label, outcome.result)
                out.fingerprints.append(fingerprint(label, outcome.result))
        return out


class Zoned20k:
    """20,040 VMs in 4 zones on the process backend with 2 workers."""

    name = "zoned-20k"
    WORKERS = 2
    #: Zoned days per pass, each on its own seed-derived input.  One day
    #: (about 10 s on 2 vCPUs) keeps a pass short enough that a run
    #: repeats it.
    INPUTS = 1
    config = FarmConfig(home_hosts=668, consolidation_hosts=16,
                        vms_per_host=30)
    zones = 4

    def __init__(self, seed: int) -> None:
        self.seeds = input_seeds(seed, self.name, self.INPUTS)

    def setup(self) -> None:
        self.strategy = resolve_strategy("Default")

    def warm_up(self, recorder) -> PassResult:
        """Nothing: each day's shards run in a fresh pool of worker
        processes, and a warm-up day would take a third of a 30-s run."""
        return PassResult()

    def run_pass(self, recorder) -> PassResult:
        out = PassResult()
        vms = self.config.total_vms
        imbalance = []
        for day, seed in enumerate(self.seeds):
            runner = SweepRunner(backend="process", workers=self.WORKERS)
            label = f"zoned/seed{seed}"
            out.attempted += 1
            try:
                # On the clock: the day runs in worker processes on both
                # cores, and the loop timed in this process before and
                # after it made eight back-to-back days spread more
                # (coefficient of variation 0.15 against 0.08).
                with Stopwatch(scaled=False) as watch, recorder.root(day):
                    zoned = simulate_zoned_day(
                        self.config, self.strategy, DayType.WEEKDAY,
                        zones=self.zones, seed=seed, runner=runner,
                    )
                problem = self._check(zoned)
            except Exception as error:  # keep going: counted as failed
                out.fail(1, f"{label}: {describe(error)}")
                continue
            if problem:
                out.fail(1, f"{label}: {problem}")
                continue
            out.add_time(watch, [watch.elapsed])
            out.vm_days += vms
            out.tally.add(label, zoned.aggregate)
            out.fingerprints.append(fingerprint(label, zoned.aggregate))
            shards = [o for o in zoned.zone_outcomes if o is not None]
            for zone, outcome in enumerate(zoned.zone_outcomes):
                if outcome is not None:
                    out.fingerprints.append(
                        fingerprint(f"{label}/zone{zone}", outcome.result)
                    )
            add_runner_figures(out.runner, runner, shards)
            walls = [o.wall_time_s for o in shards]
            imbalance.append(max(walls) / statistics.mean(walls))
            # Release this day before the next starts, so peak memory is
            # one zoned day's, as for a user running one.
            del zoned, shards
        out.runner["shard_imbalance"] = (
            statistics.mean(imbalance) if imbalance else 0.0
        )
        return out

    def _check(self, zoned) -> str:
        """Each VM in exactly one zone; per-zone joules sum exactly."""
        partition = zoned.partition
        seen = [
            vm_id for zone in range(partition.zones)
            for vm_id in partition.zone_vm_ids(zone)
        ]
        if sorted(seen) != list(range(self.config.total_vms)):
            return "a VM is in no zone or in more than one"
        shards = [o.result for o in zoned.zone_outcomes if o is not None]
        energy = zoned.aggregate.energy
        if sum(r.energy.managed_joules for r in shards) != \
                energy.managed_joules:
            return "per-zone managed joules do not sum to the aggregate"
        if sum(r.energy.baseline_joules for r in shards) != \
                energy.baseline_joules:
            return "per-zone baseline joules do not sum to the aggregate"
        return ""


WORKLOADS = {
    PaperRack.name: PaperRack,
    EquivCert.name: EquivCert,
    Zoned20k.name: Zoned20k,
}

