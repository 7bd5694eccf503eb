"""Trace-driven VDI server-farm simulation (§5).

This package wires every substrate together: it builds the rack
(:mod:`repro.cluster`), assigns one VM per user trace, runs the Oasis
manager (:mod:`repro.core`) over a simulated day on the discrete-event
kernel, integrates energy, and collects the metrics behind every figure
of the paper's evaluation.  :mod:`repro.farm.runner` fans the multi-run
evaluation sweeps out over worker processes with deterministic results.
"""

from repro.farm.config import FarmConfig
from repro.farm.metrics import FarmResult, DelayLog, DelaySample
from repro.farm.planes import SURCHARGE_STATE, FarmAccountingLedger
from repro.farm.runner import (
    RunOutcome,
    RunProgress,
    RunSpec,
    SweepRunner,
    SweepSummary,
    execute_run,
)
from repro.farm.simulation import FarmSimulation, simulate_day
from repro.farm.sweep import (
    SweepPoint,
    average_savings,
    consolidation_host_sweep,
    memory_server_power_sweep,
    cluster_shape_sweep,
    fault_rate_sweep,
    gamma_sweep,
    repetition_specs,
    run_repetitions,
)
from repro.farm.week import WeekReport, simulate_week
from repro.farm.validate import validate_simulation
from repro.farm.zones import (
    GlobalController,
    ZoneBudget,
    ZonedFarmResult,
    ZonePartition,
    build_partition,
    simulate_zoned_day,
    zone_run_specs,
)

__all__ = [
    "FarmConfig",
    "FarmResult",
    "DelaySample",
    "DelayLog",
    "FarmAccountingLedger",
    "SURCHARGE_STATE",
    "FarmSimulation",
    "simulate_day",
    "RunSpec",
    "RunOutcome",
    "RunProgress",
    "SweepRunner",
    "SweepSummary",
    "execute_run",
    "SweepPoint",
    "average_savings",
    "consolidation_host_sweep",
    "memory_server_power_sweep",
    "cluster_shape_sweep",
    "fault_rate_sweep",
    "gamma_sweep",
    "repetition_specs",
    "run_repetitions",
    "WeekReport",
    "simulate_week",
    "validate_simulation",
    "ZonePartition",
    "ZoneBudget",
    "ZonedFarmResult",
    "GlobalController",
    "build_partition",
    "zone_run_specs",
    "simulate_zoned_day",
]
