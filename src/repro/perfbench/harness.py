"""Benchmark cases and their execution.

A :class:`BenchCase` names one measurement: either a repeated
single-day simulation (``kind="simulate_day"``, reporting the best and
mean wall time over ``repeats`` runs of the *same* ensemble, so trace
generation is timed separately from the event loop) or a serial sweep
batch (``kind="sweep"``, reporting whole-batch wall time and runs per
second through :class:`repro.farm.SweepRunner`).

Every case also records a *fingerprint* — savings fraction, energy,
migration counters, traffic — so a perfbench run doubles as a
determinism probe: two runs of the same tree must produce identical
reports once the ``timing`` blocks are stripped
(:func:`repro.perfbench.report.strip_timings`).

The ``clock`` argument threaded through this module is the only source
of wall time (the CLI injects ``time.perf_counter``); the package
itself stays inside the DET checker scope with no suppressions.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import policy_by_name
from repro.errors import ConfigError
from repro.farm.config import FarmConfig
from repro.farm.runner import SweepRunner, clear_ensemble_cache
from repro.farm.simulation import FarmSimulation, derive_trace_seed
from repro.farm.sweep import repetition_specs
from repro.farm.zones import simulate_zoned_day
from repro.traces.model import DayType
from repro.traces.sampler import TraceEnsemble, generate_ensemble
from repro.units import INTERVALS_PER_DAY

__all__ = [
    "BenchCase",
    "CaseResult",
    "Clock",
    "default_cases",
    "fullscale_cases",
    "quick_cases",
    "run_case",
    "run_perfbench",
]

#: Injected wall-clock reader (e.g. ``time.perf_counter``).
Clock = Callable[[], float]

_KINDS = ("simulate_day", "sweep", "zoned_day")


@dataclass(frozen=True)
class BenchCase:
    """One named measurement of the simulator."""

    name: str
    kind: str
    policy: str
    day: str
    seed: int
    home_hosts: int
    consolidation_hosts: int
    vms_per_host: int
    #: ``simulate_day``: timed repetitions over one shared ensemble.
    repeats: int = 3
    #: ``sweep``: independent day-runs in the serial batch.
    runs: int = 4
    #: ``zoned_day``: availability zones the farm is sharded into.
    zones: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown bench kind {self.kind!r}; choose from {_KINDS}"
            )
        if self.repeats < 1 or self.runs < 1:
            raise ConfigError("repeats and runs must be >= 1")
        if self.zones < 1:
            raise ConfigError("zones must be >= 1")

    def farm_config(self) -> FarmConfig:
        return FarmConfig(
            home_hosts=self.home_hosts,
            consolidation_hosts=self.consolidation_hosts,
            vms_per_host=self.vms_per_host,
        )

    def config_dict(self) -> Dict[str, object]:
        """The case's knobs, for the JSON report (timing-free)."""
        return {
            "kind": self.kind,
            "policy": self.policy,
            "day": self.day,
            "seed": self.seed,
            "home_hosts": self.home_hosts,
            "consolidation_hosts": self.consolidation_hosts,
            "vms_per_host": self.vms_per_host,
            "repeats": self.repeats,
            "runs": self.runs,
            "zones": self.zones,
            "total_vms": self.home_hosts * self.vms_per_host,
        }


@dataclass(frozen=True)
class CaseResult:
    """A finished case: wall-clock timings plus a result fingerprint."""

    case: BenchCase
    timing: Dict[str, object]
    fingerprint: Dict[str, object]


def quick_cases() -> List[BenchCase]:
    """The tiny CI subset: seconds to run, still policy-diverse."""
    return [
        BenchCase("day/Default/16vms", "simulate_day", "Default",
                  "weekday", 0, 4, 2, 4, repeats=3),
        BenchCase("day/FulltoPartial/16vms", "simulate_day", "FulltoPartial",
                  "weekday", 0, 4, 2, 4, repeats=3),
        BenchCase("sweep/16vms", "sweep", "Default",
                  "weekday", 0, 4, 2, 4, runs=4),
        # The first scale tier: a 5k-VM farm sharded 8 ways, shards
        # fanned out over worker processes (one repeat keeps the quick
        # set quick).
        BenchCase("zoned/Default/5k-8z", "zoned_day", "Default",
                  "weekday", 0, 168, 16, 30, repeats=1, zones=8),
    ]


def default_cases() -> List[BenchCase]:
    """The full set: quick subset + mid scale + the 900-VM headline."""
    cases = quick_cases()
    cases.append(
        BenchCase("day/Default/100vms", "simulate_day", "Default",
                  "weekday", 0, 10, 2, 10, repeats=3)
    )
    for policy in ("OnlyPartial", "Default", "FulltoPartial", "NewHome"):
        cases.append(
            BenchCase(f"day/{policy}/900vms", "simulate_day", policy,
                      "weekday", 0, 30, 4, 30, repeats=3)
        )
    for gamma in (1, 3):
        # The robust planner's nlargest-per-candidate-bin inner loop is
        # the new hot path; pin it at the headline scale for both a
        # light and a heavy Γ.
        cases.append(
            BenchCase(f"day/GammaRobust@{gamma}/900vms", "simulate_day",
                      f"GammaRobust@{gamma}", "weekday", 0, 30, 4, 30,
                      repeats=3)
        )
    cases.append(
        BenchCase("sweep/900vms", "sweep", "Default",
                  "weekday", 0, 30, 4, 30, runs=3)
    )
    cases.append(
        # The second scale tier: 20k VMs over four zones (the
        # acceptance shape of the zoned pipeline).
        BenchCase("zoned/Default/20k-4z", "zoned_day", "Default",
                  "weekday", 0, 668, 16, 30, repeats=1, zones=4)
    )
    return cases


def fullscale_cases() -> List[BenchCase]:
    """The 100k-VM tier; minutes of wall time, so it is not part of
    ``default_cases`` — ``tests/test_farm_zones.py`` runs it behind the
    ``fullscale`` pytest marker."""
    return [
        BenchCase("zoned/Default/100k-16z", "zoned_day", "Default",
                  "weekday", 0, 3336, 32, 30, repeats=1, zones=16),
    ]


def _build_ensemble(case: BenchCase, config: FarmConfig) -> TraceEnsemble:
    return generate_ensemble(
        config.total_vms,
        DayType(case.day),
        seed=derive_trace_seed(case.seed),
        config=config.traces,
    )


def _day_fingerprint(result) -> Dict[str, object]:
    """Everything result-shaped the report pins (no timings).

    Includes the equivalence battery's typed fingerprint
    (:func:`repro.equiv.fingerprint_from_result`), so a committed
    report diff can be fed straight into ``equiv compare`` when a
    future engine legitimately reorders floating-point work instead of
    drifting by accident.
    """
    import dataclasses

    from repro.equiv import fingerprint_from_result

    return {
        "savings_fraction": result.savings_fraction,
        "managed_joules": result.energy.managed_joules,
        "baseline_joules": result.energy.baseline_joules,
        "counters": dataclasses.asdict(result.counters),
        "network_total_mib": result.traffic.network_total_mib(),
        "delay_samples": len(result.delays),
        "peak_active_vms": result.peak_active_vms,
        "min_powered_hosts": result.min_powered_hosts,
        "equiv": fingerprint_from_result(result).as_dict(),
    }


def _run_simulate_day(clock: Clock, case: BenchCase) -> CaseResult:
    config = case.farm_config()
    policy = policy_by_name(case.policy)
    started = clock()
    ensemble = _build_ensemble(case, config)
    ensemble_s = clock() - started
    runs_s: List[float] = []
    result = None
    for _ in range(case.repeats):
        started = clock()
        result = FarmSimulation(config, policy, ensemble,
                                seed=case.seed).run()
        runs_s.append(clock() - started)
    best_s = min(runs_s)
    vm_intervals = config.total_vms * INTERVALS_PER_DAY
    timing = {
        "ensemble_s": ensemble_s,
        "runs_s": runs_s,
        "best_s": best_s,
        "mean_s": sum(runs_s) / len(runs_s),
        "vm_intervals_per_sec": (
            vm_intervals / best_s if best_s > 0.0 else 0.0
        ),
    }
    return CaseResult(case, timing, _day_fingerprint(result))


def _run_sweep(clock: Clock, case: BenchCase) -> CaseResult:
    config = case.farm_config()
    policy = policy_by_name(case.policy)
    specs = repetition_specs(
        config, policy, DayType(case.day), runs=case.runs,
        base_seed=case.seed,
    )
    clear_ensemble_cache()  # identical cache behaviour on every run
    runner = SweepRunner()
    started = clock()
    outcomes = runner.run(specs)
    best_s = clock() - started
    timing = {
        "best_s": best_s,
        "runs_per_sec": case.runs / best_s if best_s > 0.0 else 0.0,
    }
    fingerprint = {
        "savings_fractions": [
            outcome.result.savings_fraction for outcome in outcomes
        ],
        "ensemble_cache_hits": sum(
            1 for outcome in outcomes if outcome.ensemble_cached
        ),
    }
    return CaseResult(case, timing, fingerprint)


def _run_zoned_day(clock: Clock, case: BenchCase) -> CaseResult:
    """Time the whole zoned pipeline: partition, shard fan-out (process
    backend when zones > 1), and aggregation."""
    config = case.farm_config()
    policy = policy_by_name(case.policy)
    runs_s: List[float] = []
    zoned = None
    for _ in range(case.repeats):
        clear_ensemble_cache()  # identical cache behaviour on every run
        runner = (
            SweepRunner(
                backend="process",
                workers=min(case.zones, os.cpu_count() or 1),
            )
            if case.zones > 1 else SweepRunner()
        )
        started = clock()
        zoned = simulate_zoned_day(
            config, policy, DayType(case.day),
            zones=case.zones, seed=case.seed, runner=runner,
        )
        runs_s.append(clock() - started)
    best_s = min(runs_s)
    vm_intervals = config.total_vms * INTERVALS_PER_DAY
    timing = {
        "runs_s": runs_s,
        "best_s": best_s,
        "mean_s": sum(runs_s) / len(runs_s),
        "vm_intervals_per_sec": (
            vm_intervals / best_s if best_s > 0.0 else 0.0
        ),
    }
    fingerprint = dict(_day_fingerprint(zoned.aggregate))
    fingerprint["zones"] = case.zones
    fingerprint["zone_managed_joules"] = zoned.zone_managed_joules()
    return CaseResult(case, timing, fingerprint)


def run_case(clock: Clock, case: BenchCase) -> CaseResult:
    """Execute one case; all wall time flows through ``clock``."""
    if case.kind == "simulate_day":
        return _run_simulate_day(clock, case)
    if case.kind == "zoned_day":
        return _run_zoned_day(clock, case)
    return _run_sweep(clock, case)


def _profile_case(
    clock: Clock, case: BenchCase, top: int
) -> str:
    """cProfile one extra run of ``case``; a pstats top-``top`` table."""
    config = case.farm_config()
    policy = policy_by_name(case.policy)
    ensemble = _build_ensemble(case, config)
    profile = cProfile.Profile(clock)
    profile.enable()
    FarmSimulation(config, policy, ensemble, seed=case.seed).run()
    profile.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profile, stream=stream)
    stats.sort_stats("tottime").print_stats(top)
    header = f"cProfile top {top} (tottime) for {case.name}:"
    return header + "\n" + stream.getvalue()


def run_perfbench(
    clock: Clock,
    cases: Optional[Sequence[BenchCase]] = None,
    quick: bool = False,
    profile_top: int = 0,
) -> Tuple[Dict[str, object], Optional[str]]:
    """Run every case; returns ``(report, profile_table_or_None)``.

    The report is JSON-ready: schema tag, per-case config/timing/
    fingerprint blocks.  When ``profile_top > 0`` the largest
    ``simulate_day`` case is additionally profiled with cProfile (its
    timer is ``clock`` too) and the formatted table returned.
    """
    if cases is None:
        cases = quick_cases() if quick else default_cases()
    cases = list(cases)
    names = [case.name for case in cases]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate bench case names in {names}")
    report_cases: Dict[str, object] = {}
    for case in cases:
        outcome = run_case(clock, case)
        report_cases[case.name] = {
            "config": case.config_dict(),
            "timing": outcome.timing,
            "fingerprint": outcome.fingerprint,
        }
    report: Dict[str, object] = {
        "schema": "repro.perfbench/1",
        "quick": quick,
        "cases": report_cases,
    }
    profile_text: Optional[str] = None
    if profile_top > 0:
        day_cases = [c for c in cases if c.kind == "simulate_day"]
        if day_cases:
            target = max(
                day_cases, key=lambda c: c.home_hosts * c.vms_per_host
            )
            profile_text = _profile_case(clock, target, profile_top)
    return report, profile_text
