"""The trace-driven farm simulation engine.

One :class:`FarmSimulation` runs one simulated day:

* every 5-minute trace interval, VM activity is updated and the manager
  plans FulltoPartial exchanges plus greedy host vacations (§3.1-3.2);
* idle-to-active transitions fire as jittered discrete events and are
  resolved by the policy (in-place conversion, re-homing, or waking the
  home host and returning all of its VMs), producing the Figure 11 delay
  samples;
* migrations serialize on per-host bottlenecks (the home's SAS upload
  path, host NICs), which produces resume-storm queueing;
* host power follows Table 1 through all power-state transitions, and a
  sleeping compute host pays for its memory server.

Design note — instant state commits: placement state (which VM sits
where, how much memory it holds) commits at decision time, while
latency, serialization, and energy are modeled through the event clock
and per-host busy horizons.  A per-VM ``settles_at`` timestamp bridges
the two: operations on a VM that is still "in flight" cannot start
before it lands.  This keeps the state machine simple (no partially
transferred VMs) at the cost of attributing a migration's residency to
its destination a few seconds early — negligible against 5-minute
planning intervals, and validated by the energy cross-checks in the
test suite.
"""

from __future__ import annotations

import gc
import math
import os
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set

from repro.cluster.host import Host, HostRole
from repro.cluster.power import PowerState
from repro.cluster.topology import Cluster
from repro.core.manager import ClusterManager
from repro.core.plan import (
    ActivationAction,
    ConsolidationPlan,
    ExchangePlan,
    HostVacatePlan,
    MigrationMode,
)
from repro.core.strategies import PolicyLike, resolve_strategy
from repro.energy.report import EnergyReport, baseline_energy_joules
from repro.errors import CapacityError, ConfigError, SimulationError
from repro.farm.config import FarmConfig
from repro.faults import CLEAN_WAKE, FaultInjector, FaultPlan, backoff_delays_s
from repro.farm.metrics import FarmResult
from repro.farm.planes import FarmAccountingLedger
from repro.migration.scheduler import HostBusyScheduler
from repro.migration.traffic import TrafficCategory
from repro.obs.events import CAT_FARM, CAT_FAULT, CAT_MIGRATION, CAT_POWER
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.engine import Simulator
from repro.simulator.randomness import RngStreams
from repro.traces.edges import ActivityEdgeSchedule
from repro.traces.model import DayType
from repro.traces.sampler import TraceEnsemble, generate_ensemble
from repro.units import SECONDS_PER_DAY, TRACE_INTERVAL_SECONDS
from repro.vm.machine import IntervalClock, VirtualMachine
from repro.vm.state import Residency

_SLEEP_STATE = "sleeping"

#: Distinguishes "no wake chain in flight" from a chain that gave up
#: (whose ``_wake_pending`` entry is ``None``).
_NO_CHAIN = object()

_FULL = TrafficCategory.FULL_MIGRATION
_UPLOAD = TrafficCategory.MEMORY_UPLOAD_SAS
_DESCRIPTOR = TrafficCategory.PARTIAL_DESCRIPTOR
_REINTEGRATION = TrafficCategory.REINTEGRATION

#: Each migration kind's mechanism, keyed by its trace kind: the
#: bottleneck it serializes on (``nic`` or ``sas``) and whether that is
#: the destination's rather than the source's, its latency and occupancy
#: fields of MigrationCostModel, its traffic category, and the
#: MigrationCounters field that counts it.  The kind, not the placement,
#: picks the mechanism: a re-home onto the VM's own powered home lands
#: like a reintegration but costs a full migration.
_FULL_MOVE = ("nic", False, "full_migration_s", "full_occupancy_s", _FULL)
_PARTIAL_MOVE = (
    "sas", False, "partial_migration_s", "partial_occupancy_s", _UPLOAD
)
_MOVE_KINDS = {
    "vacate_full": _FULL_MOVE + ("full_migrations",),
    "compact_full": _FULL_MOVE + ("full_migrations",),
    "exchange_full": _FULL_MOVE + ("full_migrations",),
    "return_home": _FULL_MOVE + ("full_migrations",),
    "rehome": _FULL_MOVE + ("rehomings",),
    "vacate_partial": _PARTIAL_MOVE + ("partial_migrations",),
    "exchange_partial": _PARTIAL_MOVE + ("partial_migrations",),
    "relocate_partial": (
        "nic", False, "partial_relocation_s", "relocation_occupancy_s",
        _DESCRIPTOR, "partial_relocations",
    ),
    "reintegration": (
        "nic", True, "reintegration_s", "reintegration_occupancy_s",
        _REINTEGRATION, "reintegrations",
    ),
    "convert_in_place": (
        "nic", False, "inplace_conversion_s", "inplace_conversion_s",
        TrafficCategory.CONVERSION_PULL, "conversions_in_place",
    ),
}


class FarmSimulation:
    """One day of one policy over one trace ensemble."""

    def __init__(
        self,
        config: FarmConfig,
        policy: PolicyLike,
        ensemble: TraceEnsemble,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if len(ensemble) != config.total_vms:
            raise ConfigError(
                f"ensemble has {len(ensemble)} users; the configuration "
                f"needs {config.total_vms} (one VM per user)"
            )
        self.config = config
        self.policy = resolve_strategy(policy)
        self.ensemble = ensemble
        self.seed = seed
        self.streams = RngStreams(seed)

        # Tracing is pure observation: the tracer has no RNG access and
        # every emission is gated on ``tracer.enabled``, so a null tracer
        # leaves RNG streams and results byte-identical (differential-
        # tested).  It lives outside FarmConfig so configs stay picklable.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sim = Simulator(tracer=self.tracer)
        # Clock-less components (manager, injector, memory servers) stamp
        # their events through the tracer's clock, bound to simulated time.
        self.tracer.set_clock(lambda: self.sim.now)
        self.scheduler = HostBusyScheduler()

        self.cluster = Cluster(
            home_hosts=config.home_hosts,
            consolidation_hosts=config.consolidation_hosts,
            host_capacity_mib=config.capacity_mib,
        )
        # Consolidation hosts sleep by default (§3.1); set before any
        # energy accounting begins.
        for host in self.cluster.consolidation_hosts:
            host.start_asleep()

        #: Last power-state value seen per host (tracing only); baseline
        #: includes the consolidation hosts' default SLEEPING state.
        self._power_state_seen: Dict[int, str] = {
            host.host_id: host.power_state.value for host in self.cluster
        }

        self.manager = ClusterManager(
            cluster=self.cluster,
            policy=self.policy,
            working_sets=config.working_sets,
            rng=self.streams.get("manager"),
            min_idle_intervals=config.min_idle_intervals,
            strategy=config.placement_strategy,
            tracer=self.tracer,
            streams=self.streams,
        )

        # All VMs share one interval clock: quiet VMs' idle streaks grow
        # with the clock instead of through per-VM per-interval updates.
        self._interval_clock = IntervalClock()
        self.vms: Dict[int, VirtualMachine] = {}
        for vm_id in range(config.total_vms):
            home_id = vm_id // config.vms_per_host
            vm = VirtualMachine(vm_id, home_id, config.vm_memory_mib)
            vm.track_idle_with(self._interval_clock)
            self.vms[vm_id] = vm
            self.cluster.host(home_id).attach(vm)

        self.result = FarmResult(
            policy_name=self.policy.name,
            day_type=ensemble.day_type.value,
            seed=seed,
            horizon_s=SECONDS_PER_DAY,
        )
        # Every energy/state/traffic/counter write goes through the
        # ledger (DESIGN.md §16), which fronts the result's own records.
        self.ledger = FarmAccountingLedger(self.result)

        self._jitter_rng = self.streams.get("activation-jitter")
        self._traffic_rng = self.streams.get("traffic")
        # The kind table with this run's cost fields looked up once.
        costs = config.costs
        self._move_kinds = {
            kind: (
                resource, on_destination, getattr(costs, latency),
                getattr(costs, occupancy), category, counter,
            )
            for kind, (
                resource, on_destination, latency, occupancy, category,
                counter,
            ) in _MOVE_KINDS.items()
        }

        # Fault injection: the plan fixes time-scheduled faults up front,
        # the injector answers per-exposure queries.  With the default
        # null profile neither ever draws, so fault-free runs reproduce
        # historical output byte-for-byte.
        self.fault_profile = config.faults
        self._injector = FaultInjector(
            self.fault_profile, self.streams, self.tracer
        )
        self.fault_plan = FaultPlan.build(
            self.fault_profile,
            [host.host_id for host in self.cluster.home_hosts],
            SECONDS_PER_DAY,
            self.streams.get("faults.plan"),
        )
        self.faults = self.ledger.faults
        #: Host id -> final ready time of an in-flight faulty wake chain,
        #: or None while a chain that will give up plays out.
        self._wake_pending: Dict[int, Optional[float]] = {}
        #: Host id -> when a giving-up chain's last attempt fails.
        self._wake_chain_ends: Dict[int, float] = {}

        self._settles_at: Dict[int, float] = {}
        # Min-heap of (settles_at, vm_id) marks, lazily deleted: a VM
        # that re-settles leaves its older entries in the heap; expiry
        # only trusts an entry whose mark is still current (<= now).
        self._settle_heap: List[tuple] = []
        self._episode_open: Set[int] = set()
        self._transition_done: Dict[int, float] = {}
        self._wake_after_suspend: Set[int] = set()
        self._suspend_pending: Set[int] = set()
        # The ensemble compiled to activity flips: the interval handler
        # touches only VMs whose activity changes (O(edges), not O(V)).
        self._edge_schedule = ActivityEdgeSchedule.compile(ensemble)
        self._active_count = 0
        #: origin_home_id -> ids of VMs that are FULL away from their
        #: origin home (the _return_full_vms_home candidates), plus the
        #: ids of all currently PARTIAL VMs (the working-set growth
        #: candidates).  Maintained by _move, the one commit of every
        #: residency or placement change; iterated sorted, so behaviour
        #: matches the full ascending-vm_id rescans these replace.
        self._away_full: Dict[int, Set[int]] = {}
        self._partial_vms: Set[int] = set()
        self._debug_indexes = bool(os.environ.get("REPRO_DEBUG_INDEXES"))
        #: Hosts whose power draw must be re-evaluated before the current
        #: event callback returns (see _refresh_power/_flush_power).
        self._power_dirty: Set[int] = set()
        # Hot-path caches.  The host list is stable (ascending host_id,
        # matching cluster iteration order); the power coefficients feed
        # _refresh_power_now's inlined powered/sleeping formulas, which
        # mirror HostPowerProfile.powered_watts exactly.
        self._all_hosts = self.cluster.hosts
        profile = config.host_power
        self._host_power = profile
        self._power_idle_w = profile.idle_w
        self._power_per_vm_w = profile.per_vm_w
        if config.memory_server_present:
            self._sleep_served_w: Optional[float] = (
                profile.sleep_w + config.memory_server.total_w
            )
        else:
            self._sleep_served_w = None
        # Per-event label strings are only worth building when a tracer
        # will record them; the hot paths gate on this flag.
        self._trace_labels = self.tracer.enabled
        self._planning_every = int(
            round(config.planning_interval_s / TRACE_INTERVAL_SECONDS)
        )
        self._finished = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> FarmResult:
        """Execute the full day and return the collected metrics."""
        if self._finished:
            raise SimulationError("this simulation has already run")
        # The event loop allocates heavily but creates no reference
        # cycles that must be reclaimed mid-day; pausing the cyclic
        # collector avoids periodic full-heap scans.  Purely a wall-
        # clock lever: allocation and results are unaffected.
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        try:
            if self.tracer.enabled:
                with self.tracer.span(
                    "farm.day", CAT_FARM,
                    policy=self.policy.name,
                    day_type=self.ensemble.day_type.value,
                    seed=self.seed,
                ):
                    self._run_day()
            else:
                self._run_day()
        finally:
            if collecting:
                gc.enable()
        return self.result

    def _run_day(self) -> None:
        now = self.sim.now
        if self.tracer.enabled:
            for host in self.cluster:
                self.tracer.event(
                    "power.init", CAT_POWER,
                    host=host.host_id,
                    state=host.power_state.value,
                    role=host.role.value,
                )
        for host in self.cluster:
            # Direct (non-deferred) refresh: the first set_power call per
            # host creates its meter, and meter creation order fixes the
            # float summation order of total_joules.
            self._refresh_power_now(host)
            self.ledger.set_state(host.host_id, host.power_state.value, now)

        for host_id, crash_time in self.fault_plan.memserver_crashes:
            self.sim.schedule_at(
                crash_time, self._memserver_crash, host_id,
                label=f"memserver-crash-{host_id}",
            )
        intervals = int(SECONDS_PER_DAY / TRACE_INTERVAL_SECONDS)
        for index in range(intervals):
            boundary = index * TRACE_INTERVAL_SECONDS
            self.sim.schedule_at(
                boundary, self._on_interval, index, label=f"interval-{index}"
            )
            self.sim.schedule_at(
                boundary + TRACE_INTERVAL_SECONDS / 2.0,
                self._sample_metrics,
                label=f"sample-{index}",
            )
        self.sim.run_until(SECONDS_PER_DAY)
        self._finalize()

    # ------------------------------------------------------------------
    # interval processing
    # ------------------------------------------------------------------

    def _on_interval(self, index: int) -> None:
        now = self.sim.now
        self._collect_stale_horizons(now)
        self._update_activities(index, now)
        if not self.config.memory_server_present:
            self._charge_page_request_wakeups()
        if self.config.working_set_growth_mib_per_h > 0.0:
            self._grow_working_sets(now)
        if index % self._planning_every == 0:
            if self.tracer.enabled:
                with self.tracer.span(
                    "farm.planning", CAT_FARM, interval=index
                ):
                    self._run_planning(now)
            else:
                self._run_planning(now)
        powered = PowerState.POWERED
        dirty_add = self._power_dirty.add
        consider_suspend = self._consider_suspend
        for host in self._all_hosts:
            if host._power_state is powered:
                dirty_add(host.host_id)
                if not host._vms:
                    consider_suspend(host)
        self._flush_power()
        if self._debug_indexes:
            self.cluster.verify_indexes()
            self._verify_vm_indexes()

    def _run_planning(self, now: float) -> None:
        """One periodic planning pass: exchanges, then consolidation."""
        for exchange in self.manager.plan_exchanges():
            self._execute_exchange(exchange, now)
        plan = self.manager.plan_consolidation(
            compact_consolidation=self.config.compact_consolidation_hosts
        )
        self._execute_consolidation(plan, now)

    def _update_activities(self, index: int, now: float) -> None:
        jitter_max = self.config.activation_jitter_s
        self._interval_clock.index = index
        vms = self.vms
        active_count = self._active_count
        full = Residency.FULL
        already_full = ActivationAction.ALREADY_FULL.value
        record_delay = self.result.delays.record
        uniform = self._jitter_rng.uniform
        schedule = self.sim.schedule
        on_activation = self._on_activation
        trace_labels = self._trace_labels
        # Compiled edges replay the eager per-VM scan's ascending-vm_id
        # visit order, so jitter draws and delay samples are byte-equal.
        for vm_id, active in self._edge_schedule.by_interval[index]:
            vm = vms[vm_id]
            vm.apply_activity_edge(active)
            if active:
                active_count += 1
                if vm.residency is full:
                    # Full VMs already hold all their resources (§5.5).
                    record_delay(now, vm_id, 0.0, already_full)
                else:
                    # Draw from the full (0, jitter_max] window.  The
                    # bounds must not be narrowed by a margin: with
                    # jitter_max < 2 a (1, jitter_max - 1) draw inverts
                    # its bounds and can go negative, which
                    # Simulator.schedule rejects mid-day.
                    jitter = uniform(0.0, jitter_max)
                    schedule(
                        jitter, on_activation, vm_id,
                        label=(
                            f"activate-{vm_id}" if trace_labels else ""
                        ),
                    )
            else:
                active_count -= 1
        self._active_count = active_count

    def _verify_vm_indexes(self) -> None:
        """Debug cross-check: indexes must equal a from-scratch rescan."""
        partial = {
            vm_id
            for vm_id, vm in self.vms.items()
            if vm.residency is Residency.PARTIAL
        }
        assert partial == self._partial_vms, (
            f"partial index drifted: {sorted(self._partial_vms)} vs "
            f"rescanned {sorted(partial)}"
        )
        away: Dict[int, Set[int]] = {}
        for vm in self.vms.values():
            if (
                vm.residency is Residency.FULL
                and vm.host_id != vm.origin_home_id
            ):
                away.setdefault(vm.origin_home_id, set()).add(vm.vm_id)
        indexed = {
            home_id: ids
            for home_id, ids in self._away_full.items()
            if ids
        }
        assert away == indexed, (
            f"away-full index drifted: {indexed} vs rescanned {away}"
        )

    def _collect_stale_horizons(self, now: float) -> None:
        """Drop scheduler horizons and settle marks that already passed.

        Without this the per-resource horizon dicts and ``_settles_at``
        only ever grow over a simulated day.  The watermark is safe:
        every reservation starts at ``max(sim.now, not_before, ...)``
        and the simulation clock is monotonic, so a horizon at or before
        ``now`` can never push a future start later — it behaves exactly
        like an absent (0.0) entry.  In-flight work keeps its entries:
        live ``settles_at`` values and power-transition completion times
        all lie strictly beyond ``now``, so the minimum over them and
        ``now`` is ``now`` itself.
        """
        self.scheduler.clear_before(now)
        heap = self._settle_heap
        if heap:
            settles = self._settles_at
            while heap and heap[0][0] <= now:
                _, vm_id = heappop(heap)
                mark = settles.get(vm_id)
                if mark is not None and mark <= now:
                    # The popped entry may be stale (the VM re-settled
                    # later); only the current mark decides expiry.
                    del settles[vm_id]

    def _charge_page_request_wakeups(self) -> None:
        """The no-memory-server ablation: sleeping homes pay to serve
        page requests themselves (the Jettison design, §2).

        With ``k`` consolidated partial VMs emitting request bursts at
        mean gap ``g``, arrivals at a sleeping home form a process of
        rate ``k/g``.  Treating gaps as exponential, the fraction of
        time recoverable as sleep is ``exp(-rate * overhead)`` where the
        overhead is one suspend/resume round trip plus a linger window;
        the rest of the interval is spent awake transitioning and
        serving.  That awake time is charged as an energy surcharge at
        the blended transition/idle power, and the expected wake cycles
        are counted.
        """
        profile = self.config.host_power
        linger_s = 1.0
        overhead_s = profile.transition_round_trip_s + linger_s
        blended_w = (
            profile.suspend_w * profile.suspend_s
            + profile.resume_w * profile.resume_s
            + profile.idle_w * linger_s
        ) / overhead_s
        for host in self.cluster.home_hosts:
            if not host.is_sleeping or host.served_image_count == 0:
                continue
            rate = host.served_image_count / self.config.idle_page_request_gap_s
            sleep_fraction = math.exp(-rate * overhead_s)
            awake_s = TRACE_INTERVAL_SECONDS * (1.0 - sleep_fraction)
            if awake_s <= 0.0:
                continue
            surcharge_w = blended_w - profile.sleep_w
            self.ledger.add_energy(
                ("wake-tax", host.host_id), awake_s * surcharge_w
            )
            expected_cycles = (
                rate * TRACE_INTERVAL_SECONDS * sleep_fraction
            )
            self.ledger.counters.page_request_wake_cycles += expected_cycles

    def _grow_working_sets(self, now: float) -> None:
        delta = self.config.working_set_growth_mib_per_h * (
            TRACE_INTERVAL_SECONDS / 3600.0
        )
        # The sorted partial-VM index replays the ascending-vm_id order
        # of the full rescan it replaces; the residency re-check matters
        # because an overflow's wake-home below can reintegrate later
        # VMs mid-pass (sorted() already snapshotted the membership).
        for vm_id in sorted(self._partial_vms):
            vm = self.vms[vm_id]
            if vm.residency is not Residency.PARTIAL:
                continue
            host = self.cluster.host(vm.host_id)
            try:
                host.grow_partial_vm(vm_id, delta)
            except CapacityError:
                # Growth exhausted the consolidation host (§3.2): apply the
                # same strategy as an activation that does not fit.
                self._handle_wake_home_return_all(vm, now)

    def _sample_metrics(self) -> None:
        result = self.result
        result.sample_times_s.append(self.sim.now)
        result.active_vms.append(self._active_count)
        result.powered_hosts.append(self.cluster.powered_host_count())
        result.powered_home_hosts.append(self.cluster.powered_home_count())
        result.powered_consolidation_hosts.append(
            self.cluster.powered_consolidation_count()
        )
        for host in self.cluster.consolidation_hosts:
            if host.is_powered and host.vm_count > 0:
                result.consolidation_ratio_samples.append(host.vm_count)

    # ------------------------------------------------------------------
    # activation handling
    # ------------------------------------------------------------------

    def _on_activation(self, vm_id: int) -> None:
        now = self.sim.now
        vm = self.vms[vm_id]
        decision = self.manager.decide_activation(vm)
        action = decision.action
        if action is ActivationAction.ALREADY_FULL:
            # The VM already holds all of its resources where it runs
            # (it was returned by a sibling's wake-up, or was never
            # consolidated): the user sees no delay (§5.5).
            completed = now
        elif action is ActivationAction.CONVERT_IN_PLACE:
            completed = self._activate_on_powered_host(
                vm, vm.host_id, "convert_in_place", now
            )
        elif action is ActivationAction.MIGRATE_NEW_HOME:
            completed = self._activate_on_powered_host(
                vm, decision.target_host_id, "rehome", now
            )
        else:
            completed = self._handle_wake_home_return_all(vm, now)
        self.result.delays.record(
            now, vm_id, max(0.0, completed - now), action.value
        )
        self._flush_power()

    def _activate_on_powered_host(
        self,
        vm: VirtualMachine,
        destination_id: int,
        kind: str,
        now: float,
        fault_exempt: bool = False,
    ) -> float:
        """Make an activated partial VM full without waking its home
        (§3.2): convert it in place (``destination_id`` is its host) or
        re-home it; returns when the user stops waiting."""
        source = self.cluster.host(vm.host_id)
        destination = self.cluster.host(destination_id)
        end = self._move(
            vm, source, destination, kind, now, fault_exempt=fault_exempt
        )
        if end is None:
            # The transfer died mid-stream: the VM stays partial and the
            # activation falls back to waking its home; the rescue itself
            # is fault-exempt so recovery terminates.
            self.faults.migration_retries += 1
            self._trace_fault("fault.migration_retry", vm=vm.vm_id)
            return self._handle_wake_home_return_all(
                vm, now, fault_exempt=True
            )
        self._refresh_power(source)
        if destination is source:
            # The remaining image streams in over the host's NIC while
            # the VM keeps executing on its resident working set, so the
            # user perceives only the resume handshake (§5.5).
            return now + self.config.costs.reintegration_s
        self._consider_suspend(source)
        self._refresh_power(destination)
        return end

    def _handle_wake_home_return_all(
        self, trigger: VirtualMachine, now: float, fault_exempt: bool = False
    ) -> float:
        """Wake the trigger's home and return all of its VMs (§3.2).

        "All of its VMs" covers both the partial VMs whose images the
        home serves and full VMs *originally homed* there that were
        re-homed onto consolidation hosts — migrating the latter back
        frees real space on the consolidation hosts (§3.2 Default).

        Under fault injection the wake can exhaust its retry cap; the
        trigger VM is then rerouted instead.  ``fault_exempt`` marks
        rescue invocations (crash recovery, post-give-up fallback) that
        must not themselves draw faults.
        """
        home = self.cluster.host(trigger.home_id)
        ready = self._wake_host(home, fault_exempt=fault_exempt)
        if ready is None:
            # The home refuses to wake: recover the trigger elsewhere.
            return self._reroute_after_wake_failure(trigger, now)
        self.scheduler.extend(("nic", home.host_id), ready)
        trigger_end: Optional[float] = None
        trigger_id = trigger.vm_id
        returning = sorted(
            home.served_image_ids,
            key=lambda vid: (vid != trigger_id, vid),
        )
        vms = self.vms
        hostof = self.cluster.host
        move = self._move
        dirty_add = self._power_dirty.add
        for vm_id in returning:
            vm = vms[vm_id]
            if vm.memory_mib > home.capacity_mib - home._used_mib + 1e-9:
                # Foreign re-homed VMs may crowd the host; leave the
                # stragglers consolidated rather than over-commit.
                continue
            source = hostof(vm.host_id)
            # Reintegrations queue on the woken home's NIC: a resume
            # storm of many VMs returning to one host is what produces
            # the Figure 11 tail.
            end = move(
                vm, source, home, "reintegration", now,
                fault_exempt=fault_exempt,
            )
            if end is None:
                if vm_id != trigger_id:
                    # Stays consolidated; its image is still served,
                    # so a later activation or pass recovers it.
                    continue
                # The user is waiting on the trigger: retry at once,
                # fault-exempt, behind the aborted attempt's settle mark.
                self.faults.migration_retries += 1
                self._trace_fault("fault.migration_retry", vm=vm_id)
                end = move(
                    vm, source, home, "reintegration", now,
                    fault_exempt=True,
                )
            if vm_id == trigger_id:
                trigger_end = end
            self._consider_suspend(source)
            dirty_add(source.host_id)
        self._return_full_vms_home(home, now, fault_exempt=fault_exempt)
        dirty_add(home.host_id)
        if trigger_end is None:
            # The trigger could not fit back home (pathological crowding);
            # its delay is at least the wake plus one reintegration.
            trigger_end = ready + self.config.costs.reintegration_s
        return trigger_end

    def _reroute_after_wake_failure(
        self, trigger: VirtualMachine, now: float
    ) -> float:
        """The home exhausted its wake retries: recover the trigger VM.

        Preference order mirrors activation policy: convert in place if
        the consolidation host has room, else re-home to any powered
        host with capacity, else force the home awake after its failing
        chain resolves (the rescue wake is fault-exempt, so recovery
        always terminates).
        """
        self.faults.wake_reroutes += 1
        self._trace_fault(
            "fault.wake_reroute", vm=trigger.vm_id, home=trigger.home_id
        )
        host = self.cluster.host(trigger.host_id)
        remaining = trigger.memory_mib - (trigger.working_set_mib or 0.0)
        if host.can_fit(remaining):
            return self._activate_on_powered_host(
                trigger, host.host_id, "convert_in_place", now,
                fault_exempt=True,
            )
        destination = self.manager.reroute_activation(trigger)
        if destination is not None:
            return self._activate_on_powered_host(
                trigger, destination, "rehome", now, fault_exempt=True
            )
        return self._handle_wake_home_return_all(
            trigger, now, fault_exempt=True
        )

    def _return_full_vms_home(
        self, home: Host, now: float, fault_exempt: bool = False
    ) -> None:
        """Migrate full VMs originally homed at ``home`` back to it,
        freeing consolidation-host capacity (§3.2)."""
        home_id = home.host_id
        bucket = self._away_full.get(home_id)
        if not bucket:
            return
        vms = self.vms
        full = Residency.FULL
        # The sorted away-full index visits the same VMs in the same
        # ascending-vm_id order as the full rescan it replaces, so the
        # can_fit/break sequencing (and hence RNG draws) is unchanged.
        for vm_id in sorted(bucket):
            vm = vms[vm_id]
            if vm.host_id == home_id or vm.residency is not full:
                continue
            if vm.memory_mib > home.capacity_mib - home._used_mib + 1e-9:
                break
            source = self.cluster.host(vm.host_id)
            # An aborted return leaves the VM full where it is; the next
            # wake of this home retries it.
            if self._move(
                vm, source, home, "return_home", now,
                fault_exempt=fault_exempt,
            ) is None:
                continue
            self._consider_suspend(source)
            self._power_dirty.add(source.host_id)

    # ------------------------------------------------------------------
    # planning execution
    # ------------------------------------------------------------------

    def _execute_exchange(self, plan: ExchangePlan, now: float) -> None:
        vm = self.vms[plan.vm_id]
        home = self.cluster.host(plan.origin_home_id)
        consolidation = self.cluster.host(plan.consolidation_host_id)
        if not home.can_fit(vm.memory_mib):
            return  # crowded by foreign VMs; skip this exchange
        home_had_vms = home.vm_count > 0 and home.is_powered
        ready = self._wake_host(home)
        if ready is None:
            return  # the home will not wake; a later pass retries
        self.scheduler.extend(("nic", home.host_id), ready)
        # Leg 1: full migration back to the origin home.  If it aborts,
        # the VM stays consolidated and a later planning pass retries.
        end_full = self._move(
            vm, consolidation, home, "exchange_full", now,
            not_before=max(self._settles_at.get(vm.vm_id, 0.0), ready),
        )
        if end_full is None:
            self._refresh_power(home)
            return
        # Leg 2: immediately re-consolidate as a partial VM so the home
        # can go back to sleep.  If the re-upload aborts, the VM stays
        # full at its home, which therefore cannot sleep this round.
        if not home_had_vms and self._move(
            vm, home, consolidation, "exchange_partial", now,
            working_set_mib=plan.working_set_mib, not_before=end_full,
        ) is not None:
            self._consider_suspend(home)
        # If the home was already awake running VMs, the returned full VM
        # simply stays there; the periodic planner handles it from now on.
        self.ledger.counters.exchanges += 1
        self._refresh_power(home)
        self._refresh_power(consolidation)

    def _execute_consolidation(
        self, plan: ConsolidationPlan, now: float
    ) -> None:
        for vacation in plan.vacations:
            self._execute_vacation(vacation, now)
        for compaction in plan.compactions:
            self._execute_compaction(compaction, now)

    def _execute_compaction(self, plan: HostVacatePlan, now: float) -> None:
        """Empty one consolidation host into its powered peers."""
        source = self.cluster.host(plan.host_id)
        # An aborted move rolls back: the VM stays put; the host simply
        # is not emptied this round and a later pass retries.
        for migration in plan.migrations:
            destination = self.cluster.host(migration.destination_id)
            partial = migration.mode is MigrationMode.PARTIAL
            if self._move(
                self.vms[migration.vm_id], source, destination,
                "relocate_partial" if partial else "compact_full", now,
                working_set_mib=migration.working_set_mib,
            ) is not None:
                self._power_dirty.add(destination.host_id)
        self._power_dirty.add(source.host_id)
        self._consider_suspend(source)

    def _execute_vacation(self, vacation: HostVacatePlan, now: float) -> None:
        source = self.cluster.host(vacation.host_id)
        powered = PowerState.POWERED
        # An aborted move rolls back: the VM stays on the source host,
        # which therefore cannot be vacated this round.
        for migration in vacation.migrations:
            destination = self.cluster.host(migration.destination_id)
            ready: Optional[float] = now
            if destination._power_state is not powered:
                ready = self._wake_host(destination)
                if ready is None:
                    continue  # destination will not wake; VM stays put
            partial = migration.mode is MigrationMode.PARTIAL
            if self._move(
                self.vms[migration.vm_id], source, destination,
                "vacate_partial" if partial else "vacate_full", now,
                working_set_mib=migration.working_set_mib,
                not_before=0.0, ready=ready,
            ) is not None:
                self._power_dirty.add(destination.host_id)
        self._power_dirty.add(source.host_id)
        self._consider_suspend(source)

    # ------------------------------------------------------------------
    # the migration commit
    # ------------------------------------------------------------------

    def _move(
        self,
        vm: VirtualMachine,
        source: Host,
        destination: Host,
        kind: str,
        now: float,
        working_set_mib: Optional[float] = None,
        not_before: Optional[float] = None,
        ready: float = 0.0,
        fault_exempt: bool = False,
    ) -> Optional[float]:
        """Commit one migration of ``kind``, a key of ``_MOVE_KINDS``.

        ``vm`` runs on ``source``; it lands on ``destination`` partial
        with ``working_set_mib``, or full when that is ``None`` (see
        :meth:`Cluster.move`).  Unless ``fault_exempt``, the abort is
        drawn first: an aborted attempt leaves the placement alone,
        charges the share of its nominal wire time and traffic already
        spent, moves the VM's settle mark behind the wreck, and returns
        ``None``.  Otherwise the transfer starts no earlier than
        ``not_before`` (by default the VM's settle mark), the VM lands,
        its index entries, traffic, trace event, consolidation episode
        and counter are written, and it settles at the later of the
        transfer's end and ``ready`` (when the destination is up).
        Returns the transfer's end.
        """
        (
            resource, on_destination, latency_s, occupancy_s, category,
            counter,
        ) = self._move_kinds[kind]
        vm_id = vm.vm_id
        bottleneck = (
            resource, destination.host_id if on_destination else source.host_id
        )
        costs = self.config.costs
        rng = self._traffic_rng
        fraction = None if fault_exempt else self._injector.migration_abort()
        # The nominal volume.  A partial migration draws its descriptor
        # only when it commits, ahead of its SAS upload.
        if category is _UPLOAD:
            if fraction is None:
                descriptor_mib = costs.sample_descriptor_mib(rng)
            mib = costs.sample_sas_upload_mib(rng)
        elif category is _FULL:
            mib = vm.memory_mib
        elif category is _REINTEGRATION:
            mib = costs.sample_reintegration_mib(rng)
        elif category is _DESCRIPTOR:
            # Only the descriptor and resident pages cross the wire; the
            # memory image stays at the home's memory server.
            mib = costs.sample_descriptor_mib(rng) + (
                vm.working_set_mib or 0.0
            )
        else:  # the rest of the image, pulled from the old home
            mib = vm.memory_mib - (vm.working_set_mib or 0.0)
        settles = self._settles_at
        if fraction is not None:
            _start, end = self.scheduler.reserve(
                [bottleneck],
                now,
                latency_s * fraction,
                occupancy_s=occupancy_s * fraction,
                not_before=settles.get(vm_id, 0.0),
            )
            mib *= fraction
            self.ledger.traffic.add(category, mib)
            self.faults.migration_aborts += 1
            self.faults.aborted_traffic_mib += mib
            self._trace_fault(
                "fault.migration_rollback", vm=vm_id, mib=mib,
                fraction=fraction,
            )
            self._settle(vm_id, end)
            return None
        start, end = self.scheduler.reserve_one(
            bottleneck,
            now,
            latency_s,
            occupancy_s=occupancy_s,
            not_before=(
                settles.get(vm_id, 0.0) if not_before is None else not_before
            ),
        )
        old_home_id = vm.home_id
        self.cluster.move(vm, source, destination, working_set_mib)
        # The placement indexes (see _verify_vm_indexes).
        full = working_set_mib is None
        if full:
            self._partial_vms.discard(vm_id)
        else:
            self._partial_vms.add(vm_id)
        bucket = self._away_full.get(vm.origin_home_id)
        if full and vm.host_id != vm.origin_home_id:
            if bucket is None:
                bucket = self._away_full[vm.origin_home_id] = set()
            bucket.add(vm_id)
        elif bucket is not None:
            bucket.discard(vm_id)
        ledger = self.ledger
        if category is _UPLOAD:
            ledger.record_partial_migration(descriptor_mib, mib)
            mib = descriptor_mib + mib
            self._episode_open.add(vm_id)
        else:
            ledger.traffic.add(category, mib)
        if self.tracer.enabled:
            # An in-place conversion pulls its image from the old home.
            self._trace_migration(
                kind, vm_id,
                old_home_id if destination is source else source.host_id,
                destination.host_id, mib, start, end,
            )
        if full and vm_id in self._episode_open:
            self._close_episode(vm_id)
        counters = ledger.counters
        setattr(counters, counter, getattr(counters, counter) + 1)
        self._settle(vm_id, end if end >= ready else ready)
        return end

    def _settle(self, vm_id: int, settles_at: float) -> None:
        """The VM is in flight until ``settles_at``; later operations on
        it queue behind that mark."""
        self._settles_at[vm_id] = settles_at
        heappush(self._settle_heap, (settles_at, vm_id))

    def _close_episode(self, vm_id: int) -> None:
        """End the VM's open consolidation episode: charge its
        demand-fault traffic.

        Injected page-fetch timeouts re-send part of the burst; the
        retry traffic lands in the same ledger category (real bytes on
        the same wire) and is additionally tracked per-fault.
        """
        self._episode_open.discard(vm_id)
        demand_mib = self.config.costs.sample_on_demand_mib(self._traffic_rng)
        self.ledger.record_on_demand(demand_mib)
        timeouts = self._injector.page_timeouts()
        if timeouts:
            retry_mib = timeouts * self.fault_profile.page_retry_mib
            self.ledger.traffic.add(TrafficCategory.ON_DEMAND_PAGES, retry_mib)
            self.faults.page_fetch_timeouts += timeouts
            self.faults.page_retry_traffic_mib += retry_mib
            self._trace_fault(
                "fault.page_retry", vm=vm_id,
                timeouts=timeouts, retry_mib=retry_mib,
            )

    # ------------------------------------------------------------------
    # tracing helpers (observation only — never consulted for behaviour)
    # ------------------------------------------------------------------

    def _trace_migration(
        self,
        kind: str,
        vm_id: int,
        source_id: int,
        destination_id: int,
        mib: float,
        start_s: float,
        end_s: float,
    ) -> None:
        """Record one committed migration with its bytes and wire window
        (callers check ``tracer.enabled``)."""
        self.tracer.event(
            "migration." + kind, CAT_MIGRATION,
            vm=vm_id, source=source_id, destination=destination_id,
            mib=mib, start_s=start_s, end_s=end_s,
        )

    def _trace_fault(self, name: str, **args) -> None:
        """Record one fault-handling step (counter increments mirror these)."""
        if self.tracer.enabled:
            self.tracer.event(name, CAT_FAULT, **args)

    def _host_release_after(self, host_id: int) -> float:
        """When the host's last in-flight transfer (on either its NIC or
        its SAS upload path) completes; it must not sleep before then."""
        return max(
            self.scheduler.release_after(("nic", host_id)),
            self.scheduler.release_after(("sas", host_id)),
        )

    # ------------------------------------------------------------------
    # power-state orchestration
    # ------------------------------------------------------------------

    def _wake_host(
        self, host: Host, fault_exempt: bool = False
    ) -> Optional[float]:
        """Ensure ``host`` is heading to POWERED; return when it is ready.

        Returns ``None`` when fault injection exhausted the wake retry
        cap: the host stays asleep and the caller must reroute or skip.
        With ``fault_exempt`` the wake always eventually succeeds —
        rescue paths (crash recovery, post-give-up fallback) must not
        themselves fail, or recovery would not terminate.
        """
        now = self.sim.now
        host_id = host.host_id
        profile = self.config.host_power
        pending = self._wake_pending.get(host_id, _NO_CHAIN)
        if pending is not _NO_CHAIN:
            if pending is not None:
                return pending
            if not fault_exempt:
                return None
            # A giving-up chain is in flight; force a clean wake once
            # its last attempt resolves (the host is busy until then).
            self._count_wakeup(host)
            chain_end = self._wake_chain_ends[host_id]
            ready = chain_end + profile.resume_s
            self._wake_pending[host_id] = ready
            self.sim.schedule_at(
                chain_end, self._retry_resume_attempt, host_id, ready,
                label=f"resume-forced-{host_id}",
            )
            self.sim.schedule_at(
                ready, self._complete_resume, host_id,
                label=f"resume-{host_id}",
            )
            return ready
        state = host.power_state
        if state is PowerState.POWERED:
            return now
        if state is PowerState.RESUMING:
            return self._transition_done[host_id]
        if state is PowerState.SLEEPING:
            self._count_wakeup(host)
            outcome = (
                CLEAN_WAKE if fault_exempt else self._injector.wake_outcome()
            )
            if not outcome.is_clean:
                return self._begin_faulty_wake(host, outcome, now)
            host.begin_resume()
            done = now + profile.resume_s
            self._transition_done[host_id] = done
            self._note_power_state(host)
            self.sim.schedule_at(
                done, self._complete_resume, host_id,
                label=f"resume-{host_id}",
            )
            return done
        # SUSPENDING: let the suspend finish, then bounce straight back.
        self._wake_after_suspend.add(host_id)
        self._count_wakeup(host)
        return self._transition_done[host_id] + profile.resume_s

    def _begin_faulty_wake(
        self, host: Host, outcome, now: float
    ) -> Optional[float]:
        """Play out a wake whose first attempts fail (fault injection).

        Each failed attempt is a full resume transition at resume power
        that falls back to sleep (RESUMING -> SLEEPING); retries wait
        out exponential backoff between attempts.  The whole chain is
        committed to the event queue up front — the attempt count was
        already drawn — and its eventual outcome is returned now, so
        callers handle give-ups synchronously like every other decision.
        """
        host_id = host.host_id
        resume_s = self.config.host_power.resume_s
        backoffs = backoff_delays_s(
            self.fault_profile.wake_backoff_base_s, outcome.failed_attempts
        )
        start = now
        fail_times: List[float] = []
        for index in range(outcome.failed_attempts):
            fail_times.append(start + resume_s)
            start = fail_times[-1] + backoffs[index]
        if outcome.gave_up:
            # The failure after the last retry is not itself retried.
            self.faults.wake_retries += outcome.failed_attempts - 1
            self.faults.wake_give_ups += 1
            ready: Optional[float] = None
            self._wake_chain_ends[host_id] = fail_times[-1]
        else:
            self.faults.wake_retries += outcome.failed_attempts
            ready = start + resume_s
        self._wake_pending[host_id] = ready
        # The first attempt starts immediately; the rest are scheduled.
        host.begin_resume()
        self._transition_done[host_id] = fail_times[0]
        self._note_power_state(host)
        last = outcome.gave_up and outcome.failed_attempts == 1
        self.sim.schedule_at(
            fail_times[0], self._fail_resume_attempt, host_id, last,
            label=f"resume-fail-{host_id}",
        )
        for index in range(1, outcome.failed_attempts):
            self.sim.schedule_at(
                fail_times[index] - resume_s,
                self._retry_resume_attempt, host_id, fail_times[index],
                label=f"resume-retry-{host_id}",
            )
            last = outcome.gave_up and index == outcome.failed_attempts - 1
            self.sim.schedule_at(
                fail_times[index], self._fail_resume_attempt, host_id, last,
                label=f"resume-fail-{host_id}",
            )
        if not outcome.gave_up:
            self.sim.schedule_at(
                start, self._retry_resume_attempt, host_id, ready,
                label=f"resume-retry-{host_id}",
            )
            self.sim.schedule_at(
                ready, self._complete_resume, host_id,
                label=f"resume-{host_id}",
            )
        return ready

    def _retry_resume_attempt(self, host_id: int, done: float) -> None:
        """One retry of a faulty wake chain begins its resume transition."""
        host = self.cluster.host(host_id)
        host.begin_resume()
        self._transition_done[host_id] = done
        self._note_power_state(host)
        self._flush_power()

    def _fail_resume_attempt(self, host_id: int, last: bool) -> None:
        """One attempt of a faulty wake chain fails back to sleep."""
        host = self.cluster.host(host_id)
        host.fail_resume()
        self._note_power_state(host)
        if last and self._wake_pending.get(host_id, _NO_CHAIN) is None:
            # The chain gave up and no forced wake was layered on top:
            # the host is plain asleep again and new wakes start fresh.
            del self._wake_pending[host_id]
            self._wake_chain_ends.pop(host_id, None)
        self._flush_power()

    def _memserver_crash(self, host_id: int) -> None:
        """A scheduled memory-server crash fires (fault plan).

        A crash only matters while the host sleeps (or is suspending):
        that is when the server is the sole source of consolidated VMs'
        memory.  If any images are being served, the home is force-woken
        — retries notwithstanding — and takes all of its VMs back; the
        server is repaired by the time the host completes any resume.
        """
        if not self.config.memory_server_present:
            return
        host = self.cluster.host(host_id)
        if not host.memory_server_enabled:
            return
        self.faults.memserver_crashes += 1
        self._trace_fault("fault.memserver_crash", host=host_id)
        if host.power_state in (PowerState.POWERED, PowerState.RESUMING):
            # The host is up (or waking): the dead server is detected
            # and swapped before it ever matters.
            return
        host.fail_memory_server()
        self._refresh_power(host)
        if host.served_image_count == 0:
            self._flush_power()
            return
        self.faults.crash_forced_wakeups += 1
        trigger = self.vms[min(host.served_image_ids)]
        before = self.ledger.counters.reintegrations
        self._handle_wake_home_return_all(
            trigger, self.sim.now, fault_exempt=True
        )
        rescued = self.ledger.counters.reintegrations - before
        self.faults.crash_forced_reintegrations += rescued
        self._trace_fault(
            "fault.crash_forced_wakeup", host=host_id, reintegrations=rescued
        )
        self._flush_power()

    def _count_wakeup(self, host: Host) -> None:
        if host.role is HostRole.COMPUTE:
            self.ledger.counters.home_wakeups += 1
        else:
            self.ledger.counters.consolidation_wakeups += 1

    def _complete_resume(self, host_id: int) -> None:
        host = self.cluster.host(host_id)
        host.complete_resume()
        # A powered host has its memory server swapped/repaired, and any
        # faulty wake chain that ended here is fully resolved.
        host.repair_memory_server()
        self._wake_pending.pop(host_id, None)
        self._wake_chain_ends.pop(host_id, None)
        self._note_power_state(host)
        self._flush_power()

    def _consider_suspend(self, host: Host) -> None:
        """Schedule a guarded suspend once the host drains its queue."""
        if host.host_id in self._suspend_pending:
            return
        if not host.is_powered or host.vm_count > 0:
            return
        self._suspend_pending.add(host.host_id)
        horizon = max(self.sim.now, self._host_release_after(host.host_id))
        self.sim.schedule_at(
            horizon, self._suspend_guard, host.host_id,
            label=f"suspend-{host.host_id}",
        )

    def _suspend_guard(self, host_id: int) -> None:
        self._suspend_pending.discard(host_id)
        host = self.cluster.host(host_id)
        if not host.is_powered or host.vm_count > 0:
            return
        busy = self._host_release_after(host_id)
        if busy > self.sim.now:
            self._consider_suspend(host)
            return
        host.begin_suspend()
        self._note_power_state(host)
        done = self.sim.now + self.config.host_power.suspend_s
        self._transition_done[host_id] = done
        self.ledger.counters.suspends += 1
        self.sim.schedule_at(
            done, self._complete_suspend, host_id,
            label=f"suspend-done-{host_id}",
        )
        self._flush_power()

    def _complete_suspend(self, host_id: int) -> None:
        host = self.cluster.host(host_id)
        host.complete_suspend()
        self._note_power_state(host)
        if host_id in self._wake_after_suspend:
            self._wake_after_suspend.discard(host_id)
            host.begin_resume()
            done = self.sim.now + self.config.host_power.resume_s
            self._transition_done[host_id] = done
            self._note_power_state(host)
            self.sim.schedule_at(
                done, self._complete_resume, host_id,
                label=f"resume-{host_id}",
            )
        self._flush_power()

    def _note_power_state(self, host: Host) -> None:
        self.ledger.set_state(
            host.host_id, host.power_state.value, self.sim.now
        )
        if self.tracer.enabled:
            self._trace_power_transition(host)
        self._refresh_power(host)

    def _trace_power_transition(self, host: Host) -> None:
        """Emit the host's power-state edge.

        Every edge passes through :meth:`_note_power_state`, so the
        per-host event sequence replays legally through the power-state
        machine's transition table (property-tested).
        """
        host_id = host.host_id
        state = host.power_state.value
        previous = self._power_state_seen.get(host_id, state)
        if state == previous:
            return
        self._power_state_seen[host_id] = state
        self.tracer.event(
            "power.transition", CAT_POWER,
            host=host_id, role=host.role.value,
            **{"from": previous, "to": state},
        )

    # ------------------------------------------------------------------
    # energy
    # ------------------------------------------------------------------

    def _refresh_power(self, host: Host) -> None:
        """Mark ``host`` for a power re-evaluation at callback exit.

        Within one event callback every mutation happens at the same
        simulated instant, and the accountant closes the running energy
        period with the *previously stored* watts; intermediate same-
        timestamp updates therefore contribute ``(now - now) * w = +0.0``
        joules and only the last value matters.  Deferring to a single
        :meth:`_flush_power` per dirty host at the end of each top-level
        callback is byte-identical to eager refreshing and collapses the
        duplicate work of migration bursts.
        """
        self._power_dirty.add(host.host_id)

    def _flush_power(self) -> None:
        """Re-evaluate every dirty host's power draw (sorted, then clear)."""
        dirty = self._power_dirty
        if not dirty:
            return
        host = self.cluster.host
        for host_id in sorted(dirty):
            self._refresh_power_now(host(host_id))
        dirty.clear()

    def _refresh_power_now(self, host: Host) -> None:
        state = host.power_state
        if state is PowerState.POWERED:
            # Inlined HostPowerProfile.powered_watts.
            watts = self._power_idle_w + self._power_per_vm_w * (
                host._full_count + host._partial_fraction
            )
        elif state is PowerState.SUSPENDING:
            watts = self._host_power.suspend_w
        elif state is PowerState.RESUMING:
            watts = self._host_power.resume_w
        else:  # SLEEPING
            served_w = self._sleep_served_w
            if (
                served_w is not None
                and host.memory_server_enabled
                and not host.memory_server_failed
            ):
                watts = served_w
            else:
                watts = self._host_power.sleep_w
        self.ledger.set_power(host.host_id, watts, self.sim.now)

    def _finalize(self) -> None:
        self._flush_power()
        horizon = SECONDS_PER_DAY
        for vm_id in list(self._episode_open):
            self._close_episode(vm_id)
        self.ledger.finish(horizon)
        managed = self.ledger.total_joules()
        baseline = baseline_energy_joules(
            self.config.host_power,
            home_hosts=self.config.home_hosts,
            vms_per_host=self.config.vms_per_host,
            duration_s=horizon,
        )
        self.result.energy = EnergyReport(
            managed_joules=managed,
            baseline_joules=baseline,
            fault_events=self.faults.total_events,
            fault_retries=self.faults.total_retries,
            fault_rollbacks=self.faults.total_rollbacks,
        )
        for host in self.cluster.home_hosts:
            self.result.home_sleep_s[host.host_id] = (
                self.ledger.state_duration(host.host_id, _SLEEP_STATE)
            )
        self.result.state_time_s = self.ledger.state_time_s()
        self.result.state_energy_j = self.ledger.state_energy_j()
        self._finished = True


def derive_trace_seed(seed: int) -> int:
    """The seed of the trace ensemble a day run at ``seed`` draws."""
    return RngStreams(seed).get("traces").randrange(2**31)


def simulate_day(
    config: FarmConfig,
    policy: PolicyLike,
    day_type: DayType,
    seed: int = 0,
    ensemble: Optional[TraceEnsemble] = None,
    tracer: Optional[Tracer] = None,
) -> FarmResult:
    """Convenience wrapper: generate traces (unless given) and run a day."""
    if ensemble is None:
        ensemble = generate_ensemble(
            config.total_vms,
            day_type,
            seed=derive_trace_seed(seed),
            config=config.traces,
        )
    return FarmSimulation(
        config, policy, ensemble, seed=seed, tracer=tracer
    ).run()
