"""Multi-run sweeps over the farm simulation (§5.3-5.6).

Each figure of the evaluation averages five runs per configuration; the
helpers here build the full batch of independent day-runs for a figure,
execute it through a :class:`~repro.farm.runner.SweepRunner` (serial by
default; pass a process-backend runner to parallelize), and aggregate
means and standard deviations, mirroring Figure 8's error bars.

Every helper accepts ``runner=``: the batch is handed over in one call,
so a process-backed runner overlaps *all* of a figure's runs, not just
the repetitions of one point.  Results are grouped back by sweep point
in spec order, which keeps the output byte-identical to the historical
serial implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, pstdev
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import policy_by_name
from repro.core.strategies import PolicyLike, resolve_strategy
from repro.energy.profile import MemoryServerProfile
from repro.errors import ConfigError
from repro.farm.config import FarmConfig
from repro.farm.metrics import FarmResult
from repro.farm.runner import RunSpec, SweepRunner
from repro.faults.profile import FaultProfile
from repro.traces.model import DayType


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated savings of one configuration."""

    label: str
    mean_savings: float
    std_savings: float
    runs: int

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.mean_savings:.1%} "
            f"(+/- {self.std_savings:.1%}, n={self.runs})"
        )


def _default_runner(runner: Optional[SweepRunner]) -> SweepRunner:
    return runner if runner is not None else SweepRunner()


def _require_runs(runs: int) -> None:
    if runs < 1:
        raise ConfigError("need at least one run")


def repetition_specs(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    runs: int = 5,
    base_seed: int = 0,
    label: str = "",
) -> List[RunSpec]:
    """The ``runs`` independent day-specs of one sweep point."""
    _require_runs(runs)
    return [
        RunSpec(config, policy, day_type, seed=base_seed + index, label=label)
        for index in range(runs)
    ]


def _aggregate(label: str, results: Sequence[FarmResult]) -> SweepPoint:
    savings = [result.savings_fraction for result in results]
    return SweepPoint(
        label=label,
        mean_savings=mean(savings),
        std_savings=pstdev(savings) if len(savings) > 1 else 0.0,
        runs=len(savings),
    )


def run_repetitions(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    runs: int = 5,
    base_seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> List[FarmResult]:
    """Run ``runs`` independent days (fresh trace draw per run)."""
    specs = repetition_specs(config, policy, day_type, runs, base_seed)
    return _default_runner(runner).run_results(specs)


def average_savings(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    runs: int = 5,
    base_seed: int = 0,
    label: Optional[str] = None,
    runner: Optional[SweepRunner] = None,
) -> SweepPoint:
    """Mean/stddev energy savings over repeated runs."""
    spec = resolve_strategy(policy)
    results = run_repetitions(config, spec, day_type, runs, base_seed,
                              runner=runner)
    return _aggregate(
        label if label is not None else f"{spec.name}/{day_type.value}",
        results,
    )


def consolidation_host_sweep(
    config: FarmConfig,
    policies: Sequence[PolicyLike],
    day_type: DayType,
    consolidation_counts: Sequence[int] = (2, 4, 6, 8, 10, 12),
    runs: int = 5,
    base_seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, List[Tuple[int, SweepPoint]]]:
    """Figure 8: savings vs number of consolidation hosts per policy.

    ``policies`` is any mix of specs and policy names — nothing here
    assumes the paper's four; the result dict is keyed by each policy's
    name.
    """
    _require_runs(runs)
    resolved = [resolve_strategy(policy) for policy in policies]
    specs: List[RunSpec] = []
    for policy in resolved:
        for count in consolidation_counts:
            specs.extend(repetition_specs(
                config.with_overrides(consolidation_hosts=count),
                policy,
                day_type,
                runs=runs,
                base_seed=base_seed,
                label=f"{policy.name}/{count} consolidation hosts",
            ))
    results = _default_runner(runner).run_results(specs)
    sweep: Dict[str, List[Tuple[int, SweepPoint]]] = {}
    cursor = 0
    for policy in resolved:
        series: List[Tuple[int, SweepPoint]] = []
        for count in consolidation_counts:
            chunk = results[cursor:cursor + runs]
            cursor += runs
            series.append((
                count,
                _aggregate(
                    f"{policy.name}/{count} consolidation hosts", chunk
                ),
            ))
        sweep[policy.name] = series
    return sweep


def memory_server_power_sweep(
    config: FarmConfig,
    policy: PolicyLike,
    watts_options: Sequence[float] = (42.2, 16.0, 8.0, 4.0, 2.0, 1.0),
    runs: int = 5,
    base_seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[float, SweepPoint, SweepPoint]]:
    """Table 3: weekday and weekend savings per memory-server design."""
    _require_runs(runs)
    specs: List[RunSpec] = []
    for watts in watts_options:
        variant = config.with_overrides(
            memory_server=MemoryServerProfile.alternative(watts)
        )
        for day_type in (DayType.WEEKDAY, DayType.WEEKEND):
            specs.extend(repetition_specs(
                variant, policy, day_type, runs=runs, base_seed=base_seed,
                label=f"{watts} W {day_type.value}",
            ))
    results = _default_runner(runner).run_results(specs)
    rows: List[Tuple[float, SweepPoint, SweepPoint]] = []
    cursor = 0
    for watts in watts_options:
        weekday = _aggregate(
            f"{watts} W weekday", results[cursor:cursor + runs]
        )
        cursor += runs
        weekend = _aggregate(
            f"{watts} W weekend", results[cursor:cursor + runs]
        )
        cursor += runs
        rows.append((watts, weekday, weekend))
    return rows


def fault_rate_sweep(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    base_profile: Optional[FaultProfile] = None,
    scale_factors: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    runs: int = 5,
    base_seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[float, SweepPoint, List[FarmResult]]]:
    """Graceful degradation: savings vs injected fault rate.

    Every fault probability of ``base_profile`` (default: the ``light``
    reference profile) is scaled by each factor; retry/abort semantics
    knobs stay fixed, so the curve isolates the failure *rate*.  The
    0.0 point is the fault-free control — identical traces and seeds,
    zero injections — making the rows directly comparable.  Raw results
    ride along so callers can aggregate fault counters, not just energy.
    """
    _require_runs(runs)
    profile = (
        base_profile if base_profile is not None else FaultProfile.light()
    )
    specs: List[RunSpec] = []
    labels: List[str] = []
    for factor in scale_factors:
        if factor < 0.0:
            raise ConfigError(
                f"fault scale factors must be non-negative, got {factor}"
            )
        label = f"{profile.name}x{factor:g}"
        labels.append(label)
        specs.extend(repetition_specs(
            config.with_overrides(faults=profile.scaled(factor, name=label)),
            policy, day_type, runs=runs, base_seed=base_seed, label=label,
        ))
    results = _default_runner(runner).run_results(specs)
    rows: List[Tuple[float, SweepPoint, List[FarmResult]]] = []
    for index, factor in enumerate(scale_factors):
        chunk = results[index * runs:(index + 1) * runs]
        rows.append((factor, _aggregate(labels[index], chunk), chunk))
    return rows


def cluster_shape_sweep(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    shapes: Sequence[Tuple[int, int]] = (
        (30, 2), (30, 4), (30, 6), (30, 8), (30, 10), (30, 12),
        (20, 2), (20, 3), (20, 4),
        (18, 2), (18, 3), (18, 4),
        (15, 2), (15, 3), (15, 4),
        (10, 2), (10, 3), (10, 4),
    ),
    runs: int = 5,
    base_seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[str, SweepPoint]]:
    """Figure 12: vary home/consolidation host counts at a fixed 900 VMs.

    The total VM population stays constant, so the per-host VM count (and
    the hosts' memory capacity, which scales with it) changes with the
    number of home hosts — e.g. 20 home hosts means 45 VMs per host.
    """
    _require_runs(runs)
    total_vms = config.total_vms
    specs: List[RunSpec] = []
    labels: List[str] = []
    for home_hosts, consolidation_hosts in shapes:
        if total_vms % home_hosts != 0:
            raise ConfigError(
                f"{total_vms} VMs do not divide over {home_hosts} home hosts"
            )
        shaped = config.with_overrides(
            home_hosts=home_hosts,
            consolidation_hosts=consolidation_hosts,
            vms_per_host=total_vms // home_hosts,
            host_capacity_mib=None,
        )
        label = f"{home_hosts}+{consolidation_hosts}"
        labels.append(label)
        specs.extend(repetition_specs(
            shaped, policy, day_type, runs=runs, base_seed=base_seed,
            label=label,
        ))
    results = _default_runner(runner).run_results(specs)
    rows: List[Tuple[str, SweepPoint]] = []
    for index, label in enumerate(labels):
        chunk = results[index * runs:(index + 1) * runs]
        rows.append((label, _aggregate(label, chunk)))
    return rows


def gamma_sweep(
    config: FarmConfig,
    gammas: Sequence[int],
    day_type: DayType,
    baselines: Sequence[PolicyLike] = (),
    runs: int = 5,
    base_seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> List[Tuple[str, SweepPoint]]:
    """Γ-robustness sweep: baselines side by side with ``GammaRobust@Γ``.

    Each baseline policy and each ``GammaRobust@Γ`` policy runs the
    same ``runs`` seeded days on the same ``config`` (fault injection
    rides along through ``config.faults``), so the rows isolate the
    packing policy.  Robust policies are looked up by name, exactly as
    the CLI would.
    """
    _require_runs(runs)
    resolved = [resolve_strategy(policy) for policy in baselines]
    for gamma in gammas:
        if gamma < 0:
            raise ConfigError(
                f"gamma values must be non-negative, got {gamma}"
            )
        resolved.append(policy_by_name(f"GammaRobust@{int(gamma)}"))
    specs: List[RunSpec] = []
    for policy in resolved:
        specs.extend(repetition_specs(
            config, policy, day_type, runs=runs, base_seed=base_seed,
            label=policy.name,
        ))
    results = _default_runner(runner).run_results(specs)
    rows: List[Tuple[str, SweepPoint]] = []
    for index, policy in enumerate(resolved):
        chunk = results[index * runs:(index + 1) * runs]
        rows.append((policy.name, _aggregate(policy.name, chunk)))
    return rows
