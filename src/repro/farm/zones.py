"""Hierarchical multi-zone simulation: the global/local manager split.

One :class:`~repro.farm.simulation.FarmSimulation` is the largest unit
of work the simulator offers — fine for the paper's 900-VM rack, a
ceiling for "millions of users".  This module breaks that ceiling the
way production consolidation managers do (OpenStack Neat's global/local
split): partition the farm into independent *availability zones*, run
each zone as its own farm simulation — an independent shard on the
:class:`~repro.farm.runner.SweepRunner` process backend — and put a
thin :class:`GlobalController` above the shards for cross-zone VM
admission, zone-level power budgeting, and aggregation of the per-zone
results into one :class:`ZonedFarmResult`.

Determinism contract
--------------------
* The VM→zone assignment is a pure function of
  ``(master seed, home_hosts, zones)``: home hosts are shuffled by a
  ``random.Random`` seeded with ``derive_seed(seed, "zones.assignment")``
  and dealt into balanced contiguous chunks; VMs follow their home
  host.  No other stream observes these draws.
* Zone ``k`` simulates with seed ``derive_seed(seed, "zone.k")`` — the
  same stream-derivation scheme every other substream uses — so shards
  are mutually independent and individually reproducible.
* The single-zone partition is the **identity transform**: zone 0 keeps
  the master seed and every host, so a ``zones=1`` run is byte-identical
  to the unsharded simulator (``tests/test_farm_zones.py`` pins this
  differentially, and the CLI goldens pin the printed output).

Aggregation invariants (all test-pinned): every VM lands in exactly one
zone; per-zone managed/baseline energies sum *exactly* (same floats,
same order) to the aggregate :class:`~repro.energy.report.EnergyReport`;
migration/fault counters and the traffic ledger are field-wise sums;
the per-interval time series are element-wise sums over shards that
share the same 288 sampling instants; delay logs concatenate in zone
order, column by column, each VM id renamed through its zone's
local-to-global table (:meth:`ZonePartition.zone_vm_ids`).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.strategies import PolicyLike
from repro.energy.report import EnergyReport
from repro.errors import ConfigError, SimulationError
from repro.farm.config import FarmConfig
from repro.farm.metrics import DelayLog, FarmResult, MigrationCounters
from repro.farm.runner import RunOutcome, RunSpec, SweepRunner
from repro.faults.model import FaultCounters
from repro.migration.traffic import TrafficLedger
from repro.obs.events import CAT_ZONE
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.randomness import derive_seed
from repro.traces.model import DayType

__all__ = [
    "ZonePartition",
    "ZoneBudget",
    "ZonedFarmResult",
    "GlobalController",
    "build_partition",
    "zone_run_specs",
    "simulate_zoned_day",
]


# ----------------------------------------------------------------------
# the partition
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZonePartition:
    """A deterministic assignment of the farm's hosts (and therefore
    VMs) to availability zones.

    ``home_host_ids[k]`` lists zone ``k``'s home hosts by *global* id,
    sorted ascending, so local home index ``i`` within the zone maps to
    global id ``home_host_ids[k][i]`` — the remap every aggregation
    step uses.  ``consolidation_host_ids[k]`` records the global
    consolidation hosts (ids ``home_hosts ..``) the zone owns.  Zones
    may be empty (``zones > home_hosts``); empty zones own no hosts and
    simulate nothing.
    """

    zones: int
    seed: int
    vms_per_host: int
    home_host_ids: Tuple[Tuple[int, ...], ...]
    consolidation_host_ids: Tuple[Tuple[int, ...], ...]

    @property
    def total_home_hosts(self) -> int:
        return sum(len(ids) for ids in self.home_host_ids)

    @property
    def total_vms(self) -> int:
        return self.total_home_hosts * self.vms_per_host

    @property
    def nonempty_zones(self) -> Tuple[int, ...]:
        """Indices of zones that own at least one home host."""
        return tuple(
            zone for zone in range(self.zones) if self.home_host_ids[zone]
        )

    def is_empty(self, zone: int) -> bool:
        return not self.home_host_ids[zone]

    def zone_seed(self, zone: int) -> int:
        """The shard's master seed.

        A single-zone partition is the identity transform, so it keeps
        the farm's master seed (byte-identity with the unsharded
        simulator); with more zones each shard derives its own
        substream seed.
        """
        if self.zones == 1:
            return self.seed
        return derive_seed(self.seed, f"zone.{zone}")

    def zone_vm_ids(self, zone: int) -> Tuple[int, ...]:
        """The zone's VMs by *global* id (grouped by home host)."""
        return tuple(
            home * self.vms_per_host + offset
            for home in self.home_host_ids[zone]
            for offset in range(self.vms_per_host)
        )

    def vm_zone(self, vm_id: int) -> int:
        """Which zone owns the VM with the given global id."""
        home = vm_id // self.vms_per_host
        for zone, homes in enumerate(self.home_host_ids):
            if home in homes:
                return zone
        raise ConfigError(f"VM {vm_id} belongs to no zone")

    def global_vm_id(self, zone: int, local_vm_id: int) -> int:
        """Map a shard-local VM id back to the farm-global id."""
        local_home, offset = divmod(local_vm_id, self.vms_per_host)
        return (
            self.home_host_ids[zone][local_home] * self.vms_per_host + offset
        )

    def global_home_id(self, zone: int, local_home_id: int) -> int:
        """Map a shard-local home-host id back to the farm-global id."""
        return self.home_host_ids[zone][local_home_id]

    def zone_config(self, zone: int, base: FarmConfig) -> Optional[FarmConfig]:
        """The shard's farm config, or ``None`` for an empty zone."""
        homes = self.home_host_ids[zone]
        if not homes:
            return None
        return base.with_overrides(
            home_hosts=len(homes),
            consolidation_hosts=len(self.consolidation_host_ids[zone]),
        )


def build_partition(
    config: FarmConfig, zones: int, seed: int
) -> ZonePartition:
    """Partition ``config``'s hosts into ``zones`` availability zones.

    Home hosts are shuffled by a seeded stream and dealt into balanced
    contiguous chunks (the first ``home_hosts % zones`` zones take one
    extra); each zone's list is then sorted so local indices map
    monotonically to global ids.  Consolidation hosts are dealt the
    same way across the non-empty zones, which each need at least one —
    hence ``consolidation_hosts >= min(zones, home_hosts)``.
    """
    if zones < 1:
        raise ConfigError(f"zones must be >= 1, got {zones}")
    order = list(range(config.home_hosts))
    random.Random(derive_seed(seed, "zones.assignment")).shuffle(order)
    base, extra = divmod(config.home_hosts, zones)
    homes: List[Tuple[int, ...]] = []
    cursor = 0
    for zone in range(zones):
        size = base + (1 if zone < extra else 0)
        homes.append(tuple(sorted(order[cursor:cursor + size])))
        cursor += size
    nonempty = [zone for zone in range(zones) if homes[zone]]
    if config.consolidation_hosts < len(nonempty):
        raise ConfigError(
            f"{len(nonempty)} non-empty zones need at least one "
            f"consolidation host each; config has "
            f"{config.consolidation_hosts}"
        )
    cons: List[Tuple[int, ...]] = [() for _ in range(zones)]
    cons_base, cons_extra = divmod(config.consolidation_hosts, len(nonempty))
    next_id = config.home_hosts
    for rank, zone in enumerate(nonempty):
        count = cons_base + (1 if rank < cons_extra else 0)
        cons[zone] = tuple(range(next_id, next_id + count))
        next_id += count
    return ZonePartition(
        zones=zones,
        seed=seed,
        vms_per_host=config.vms_per_host,
        home_host_ids=tuple(homes),
        consolidation_host_ids=tuple(cons),
    )


def zone_run_specs(
    partition: ZonePartition,
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
) -> List[Tuple[int, RunSpec]]:
    """One :class:`RunSpec` per non-empty zone, in zone order."""
    specs: List[Tuple[int, RunSpec]] = []
    for zone in partition.nonempty_zones:
        zone_config = partition.zone_config(zone, config)
        assert zone_config is not None  # non-empty by construction
        specs.append((
            zone,
            RunSpec(
                config=zone_config,
                policy=policy,
                day_type=day_type,
                seed=partition.zone_seed(zone),
                label=f"zone-{zone}",
            ),
        ))
    return specs


# ----------------------------------------------------------------------
# power budgeting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZoneBudget:
    """One zone's share of the farm-level power budget, with actuals."""

    zone: int
    #: Worst-case draw: every host powered with its full VM complement,
    #: plus the zone's memory servers (when present).
    peak_demand_w: float
    #: The share of the farm budget granted to the zone (proportional
    #: to peak demand).
    share_w: float
    #: Mean measured power over the simulated day (managed energy /
    #: horizon); 0.0 for an empty zone.
    mean_power_w: float

    @property
    def within_budget(self) -> bool:
        return self.mean_power_w <= self.share_w + 1e-9

    @property
    def utilization(self) -> float:
        """Measured mean power as a fraction of the granted share."""
        if self.share_w <= 0.0:
            return 0.0
        return self.mean_power_w / self.share_w


def _zone_peak_demand_w(config: FarmConfig, zone_config: FarmConfig) -> float:
    """Worst-case steady-state draw of one zone's hosts."""
    hosts = zone_config.home_hosts + zone_config.consolidation_hosts
    per_host_w = config.host_power.powered_watts(
        full_vms=config.vms_per_host
    )
    if config.memory_server_present:
        per_host_w += config.memory_server.total_w
    return hosts * per_host_w


# ----------------------------------------------------------------------
# the zoned result
# ----------------------------------------------------------------------


@dataclass
class ZonedFarmResult:
    """A sharded day: per-zone results plus the farm-wide aggregate.

    ``aggregate`` is a plain :class:`FarmResult` whose fields are exact
    sums/merges of the shards (delay samples and home-sleep keys
    remapped back to farm-global ids), so every FarmResult consumer —
    the CLI printer, the figure readers, the golden snapshots — works
    unchanged on a zoned run.
    """

    partition: ZonePartition
    aggregate: FarmResult
    #: One entry per zone, ``None`` for empty zones.
    zone_outcomes: Tuple[Optional[RunOutcome], ...]
    budgets: Tuple[ZoneBudget, ...]
    #: The farm-level budget the shares were carved from (``None`` when
    #: no cap was requested: shares default to peak demand).
    budget_w: Optional[float] = None

    @property
    def zones(self) -> int:
        return self.partition.zones

    @property
    def zone_results(self) -> Tuple[Optional[FarmResult], ...]:
        return tuple(
            outcome.result if outcome is not None else None
            for outcome in self.zone_outcomes
        )

    @property
    def savings_fraction(self) -> float:
        return self.aggregate.savings_fraction

    @property
    def energy(self) -> EnergyReport:
        return self.aggregate.energy

    def zone_managed_joules(self) -> List[float]:
        """Per-zone managed energy, 0.0 for empty zones (test anchor:
        ``sum()`` of this list equals the aggregate exactly)."""
        return [
            outcome.result.energy.managed_joules if outcome else 0.0
            for outcome in self.zone_outcomes
        ]

    def __repr__(self) -> str:
        shards = sum(1 for o in self.zone_outcomes if o is not None)
        return (
            f"<ZonedFarmResult zones={self.zones} shards={shards} "
            f"savings={self.aggregate.savings_fraction:.1%}>"
        )


def _sum_dataclass(template, parts):
    """Field-wise sum of plain counter dataclasses (same type)."""
    fields = dataclasses.fields(template)
    return type(template)(**{
        f.name: sum(getattr(part, f.name) for part in parts)
        for f in fields
    })


def _aggregate_results(
    partition: ZonePartition,
    seed: int,
    ordered: Sequence[Tuple[int, FarmResult]],
) -> FarmResult:
    """Fold the per-zone results into one farm-global FarmResult."""
    results = [result for _zone, result in ordered]
    first = results[0]
    for result in results[1:]:
        if len(result.sample_times_s) != len(first.sample_times_s):
            raise SimulationError(
                "zones disagree on sample count: "
                f"{len(result.sample_times_s)} vs "
                f"{len(first.sample_times_s)}"
            )
    energy = EnergyReport(
        managed_joules=sum(r.energy.managed_joules for r in results),
        baseline_joules=sum(r.energy.baseline_joules for r in results),
        fault_events=sum(r.energy.fault_events for r in results),
        fault_retries=sum(r.energy.fault_retries for r in results),
        fault_rollbacks=sum(r.energy.fault_rollbacks for r in results),
    )
    counters = _sum_dataclass(MigrationCounters(), [r.counters for r in results])
    faults = _sum_dataclass(FaultCounters(), [r.faults for r in results])
    traffic = TrafficLedger()
    for result in results:
        traffic.merge(result.traffic)
    delays = DelayLog()
    for zone, result in ordered:
        delays.extend(result.delays, partition.zone_vm_ids(zone))
    home_sleep_s: Dict[int, float] = {}
    for zone, result in ordered:
        for local_id, slept in result.home_sleep_s.items():
            home_sleep_s[partition.global_home_id(zone, local_id)] = slept
    state_time_s: Dict[str, float] = {}
    state_energy_j: Dict[str, float] = {}
    for result in results:
        for state, seconds in result.state_time_s.items():
            state_time_s[state] = state_time_s.get(state, 0.0) + seconds
        for state, joules in result.state_energy_j.items():
            state_energy_j[state] = (
                state_energy_j.get(state, 0.0) + joules
            )
    return FarmResult(
        policy_name=first.policy_name,
        day_type=first.day_type,
        seed=seed,
        horizon_s=first.horizon_s,
        sample_times_s=list(first.sample_times_s),
        active_vms=[sum(vals) for vals in zip(*(r.active_vms for r in results))],
        powered_hosts=[
            sum(vals) for vals in zip(*(r.powered_hosts for r in results))
        ],
        powered_home_hosts=[
            sum(vals) for vals in zip(*(r.powered_home_hosts for r in results))
        ],
        powered_consolidation_hosts=[
            sum(vals)
            for vals in zip(*(r.powered_consolidation_hosts for r in results))
        ],
        consolidation_ratio_samples=[
            sample
            for result in results
            for sample in result.consolidation_ratio_samples
        ],
        delays=delays,
        traffic=traffic,
        counters=counters,
        faults=faults,
        energy=energy,
        home_sleep_s=home_sleep_s,
        state_time_s=dict(sorted(state_time_s.items())),
        state_energy_j=dict(sorted(state_energy_j.items())),
    )


# ----------------------------------------------------------------------
# the global controller
# ----------------------------------------------------------------------


class GlobalController:
    """The thin cross-zone manager above the per-zone shards.

    Responsibilities (and nothing more — each zone's consolidation
    decisions stay entirely inside its own ``FarmSimulation``):

    * **admission** — every VM is admitted to exactly one zone, and no
      zone is asked to host more VMs than its home hosts carry;
    * **budgeting** — the farm power budget is carved into per-zone
      shares proportional to worst-case demand, and measured mean power
      is reported against each share after the run;
    * **aggregation** — per-zone results fold into one farm-global
      :class:`FarmResult` (see :func:`_aggregate_results`).

    When a tracer is supplied the controller emits zone-tagged
    coordination events (category ``"zone"``): ``zone.partition`` per
    zone before the run, ``zone.shard_done`` per shard and one
    ``zone.aggregate`` after it.  Shards run in worker processes, so
    their internal events are not streamed; trace a single-zone run for
    full fidelity.
    """

    def __init__(
        self,
        config: FarmConfig,
        policy: PolicyLike,
        day_type: DayType,
        zones: int = 1,
        seed: int = 0,
        budget_w: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if budget_w is not None and not 0.0 < budget_w < math.inf:
            raise ConfigError(
                f"budget_w must be positive and finite, got {budget_w}"
            )
        self.config = config
        self.policy = policy
        self.day_type = day_type
        self.seed = seed
        self.budget_w = budget_w
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.partition = build_partition(config, zones, seed)

    # -- admission -----------------------------------------------------

    def check_admission(self) -> None:
        """Prove every VM is admitted to exactly one zone."""
        partition = self.partition
        seen: Dict[int, int] = {}
        for zone in range(partition.zones):
            vm_ids = partition.zone_vm_ids(zone)
            capacity = (
                len(partition.home_host_ids[zone]) * partition.vms_per_host
            )
            if len(vm_ids) != capacity:
                raise SimulationError(
                    f"zone {zone} admits {len(vm_ids)} VMs but its homes "
                    f"carry {capacity}"
                )
            for vm_id in vm_ids:
                if vm_id in seen:
                    raise SimulationError(
                        f"VM {vm_id} admitted to zones {seen[vm_id]} "
                        f"and {zone}"
                    )
                seen[vm_id] = zone
        expected = set(range(self.config.total_vms))
        if set(seen) != expected:
            missing = sorted(expected - set(seen))
            suffix = "..." if len(missing) > 10 else ""
            raise SimulationError(
                f"admission lost VMs: {missing[:10]}{suffix}"
            )

    # -- budgeting -----------------------------------------------------

    def _peak_demands(self) -> List[float]:
        demands = []
        for zone in range(self.partition.zones):
            zone_config = self.partition.zone_config(zone, self.config)
            demands.append(
                _zone_peak_demand_w(self.config, zone_config)
                if zone_config is not None else 0.0
            )
        return demands

    def allocate_budget(self) -> List[float]:
        """Per-zone power shares (watts), proportional to peak demand."""
        demands = self._peak_demands()
        if self.budget_w is None:
            return demands
        total = sum(demands)
        if total <= 0.0:
            return demands
        return [self.budget_w * demand / total for demand in demands]

    # -- execution -----------------------------------------------------

    def run(self, runner: Optional[SweepRunner] = None) -> ZonedFarmResult:
        """Simulate every shard and aggregate; the whole zoned day."""
        runner = runner if runner is not None else SweepRunner()
        partition = self.partition
        self.check_admission()
        shares = self.allocate_budget()
        demands = self._peak_demands()
        if self.tracer.enabled:
            for zone in range(partition.zones):
                self.tracer.event(
                    "zone.partition", CAT_ZONE,
                    zone=zone,
                    home_hosts=len(partition.home_host_ids[zone]),
                    consolidation_hosts=len(
                        partition.consolidation_host_ids[zone]
                    ),
                    vms=len(partition.home_host_ids[zone])
                    * partition.vms_per_host,
                    seed=partition.zone_seed(zone),
                    budget_share_w=shares[zone],
                )
        specs = zone_run_specs(
            partition, self.config, self.policy, self.day_type
        )
        outcomes = runner.run([spec for _zone, spec in specs])
        by_zone: Dict[int, RunOutcome] = {
            zone: outcome
            for (zone, _spec), outcome in zip(specs, outcomes)
        }
        ordered = [
            (zone, by_zone[zone].result) for zone in partition.nonempty_zones
        ]
        aggregate = _aggregate_results(partition, self.seed, ordered)
        budgets = tuple(
            ZoneBudget(
                zone=zone,
                peak_demand_w=demands[zone],
                share_w=shares[zone],
                mean_power_w=(
                    by_zone[zone].result.energy.managed_joules
                    / by_zone[zone].result.horizon_s
                    if zone in by_zone else 0.0
                ),
            )
            for zone in range(partition.zones)
        )
        if self.tracer.enabled:
            self.tracer.set_clock(lambda: aggregate.horizon_s)
            for zone, result in ordered:
                # No worker attribution: RunOutcome.worker is a pid and
                # which process ran which shard is scheduling-dependent;
                # trace files must stay reproducible for a given seed.
                self.tracer.event(
                    "zone.shard_done", CAT_ZONE,
                    zone=zone,
                    savings_fraction=result.savings_fraction,
                    managed_joules=result.energy.managed_joules,
                )
            self.tracer.event(
                "zone.aggregate", CAT_ZONE,
                zones=partition.zones,
                shards=len(ordered),
                savings_fraction=aggregate.savings_fraction,
                managed_joules=aggregate.energy.managed_joules,
            )
        return ZonedFarmResult(
            partition=partition,
            aggregate=aggregate,
            zone_outcomes=tuple(
                by_zone.get(zone) for zone in range(partition.zones)
            ),
            budgets=budgets,
            budget_w=self.budget_w,
        )


def simulate_zoned_day(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    zones: int = 1,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
    budget_w: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> ZonedFarmResult:
    """Partition the farm into ``zones`` shards, simulate each, and
    aggregate — the zoned counterpart of
    :func:`~repro.farm.simulation.simulate_day`.

    ``runner`` selects the execution backend (default: in-process
    serial); pass ``SweepRunner(backend="process", workers=N)`` to fan
    the shards out over worker processes.  A ``zones=1`` call is
    byte-identical to the unsharded simulator.
    """
    controller = GlobalController(
        config, policy, day_type,
        zones=zones, seed=seed, budget_w=budget_w, tracer=tracer,
    )
    return controller.run(runner=runner)
