"""Hot-path machinery: lazy labels, __slots__, index/lazy-ws batteries.

Covers the ISSUE 5 satellite checklist: schedule labels must cost
nothing when no tracer consumes them, the hot per-VM/per-host/per-event
objects must reject stray attributes, and randomized property batteries
must show the incremental indexes and the lazy working-set
materialization agree exactly with from-scratch recomputation.
"""

import random

import pytest

from repro.cluster import Cluster, Host, HostRole, PowerState
from repro.core import FULL_TO_PARTIAL
from repro.core.placement import _ShadowCapacity
from repro.core.plan import MigrationMode, PlannedMigration
from repro.errors import ConfigError
from repro.farm import FarmConfig, FarmSimulation
from repro.faults import fault_profile_by_name
from repro.migration.traffic import TrafficLedger
from repro.obs.tracer import RecordingTracer
from repro.simulator.engine import Simulator
from repro.simulator.events import ScheduledEvent
from repro.traces import DayType, TraceEnsemble, UserDayTrace
from repro.traces.edges import ActivityEdgeSchedule
from repro.traces.sampler import generate_ensemble
from repro.units import INTERVALS_PER_DAY
from repro.vm import IntervalClock, LazyWorkingSet, VirtualMachine
from repro.vm.state import Residency


def small_ensemble(users, seed=0):
    rng = random.Random(seed)
    traces = []
    for user_id in range(users):
        intervals = tuple(
            rng.random() < 0.3 for _ in range(INTERVALS_PER_DAY)
        )
        traces.append(UserDayTrace(user_id, DayType.WEEKDAY, intervals))
    return TraceEnsemble(DayType.WEEKDAY, tuple(traces))


# ---------------------------------------------------------------------------
# Satellite: lazy schedule labels
# ---------------------------------------------------------------------------


class TestLazyLabels:
    def test_callable_label_never_invoked_without_tracer(self):
        sim = Simulator()
        calls = []

        def label():
            calls.append(1)
            return "expensive"

        sim.schedule(1.0, lambda: None, label=label)
        sim.run()
        assert calls == []

    def test_callable_label_resolved_for_enabled_tracer(self):
        sim = Simulator(tracer=RecordingTracer())
        calls = []

        def label():
            calls.append(1)
            return "expensive"

        sim.schedule(1.0, lambda: None, label=label)
        sim.run()
        assert calls == [1]

    def test_farm_builds_no_activation_labels_untraced(self):
        config = FarmConfig(
            home_hosts=2, consolidation_hosts=1, vms_per_host=2
        )
        simulation = FarmSimulation(
            config, FULL_TO_PARTIAL, small_ensemble(4), seed=0
        )
        seen = []
        inner = simulation.sim.schedule

        def recording_schedule(delay, callback, *args, label=""):
            seen.append(label)
            return inner(delay, callback, *args, label=label)

        simulation.sim.schedule = recording_schedule
        simulation.run()
        assert seen  # activations did fire
        assert all(label == "" for label in seen)

    def test_farm_builds_activation_labels_when_traced(self):
        config = FarmConfig(
            home_hosts=2, consolidation_hosts=1, vms_per_host=2
        )
        simulation = FarmSimulation(
            config, FULL_TO_PARTIAL, small_ensemble(4), seed=0,
            tracer=RecordingTracer(),
        )
        seen = []
        inner = simulation.sim.schedule

        def recording_schedule(delay, callback, *args, label=""):
            seen.append(label)
            return inner(delay, callback, *args, label=label)

        simulation.sim.schedule = recording_schedule
        simulation.run()
        assert any(
            isinstance(label, str) and label.startswith("activate-")
            for label in seen
        )


# ---------------------------------------------------------------------------
# Satellite: __slots__ on hot objects
# ---------------------------------------------------------------------------


class TestSlotsRejectStrayAttributes:
    def instances(self):
        clock = IntervalClock()
        vm = VirtualMachine(0, 0)
        host = Host(0, HostRole.COMPUTE, 4096.0)
        event = ScheduledEvent(0.0, 0, lambda: None)
        ledger = TrafficLedger()
        lazy = LazyWorkingSet(100.0, 1.0, 4096.0)
        migration = PlannedMigration(1, 0, 5, MigrationMode.FULL)
        shadow = _ShadowCapacity(Cluster(1, 1, 4096.0))
        return [clock, vm, host, event, ledger, lazy, migration, shadow]

    def test_all_hot_classes_use_slots(self):
        for obj in self.instances():
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_stray_assignment_raises(self):
        for obj in self.instances():
            with pytest.raises(AttributeError):
                obj.stray_attribute = 1


# ---------------------------------------------------------------------------
# Satellite: randomized property batteries
# ---------------------------------------------------------------------------


class TestIndexBattery:
    """Incremental indexes equal a from-scratch rescan after every
    mutation, across ~100 randomized mutation schedules."""

    @pytest.mark.parametrize("seed", range(100))
    def test_randomized_mutations_match_rescan(self, seed):
        rng = random.Random(seed)
        cluster = Cluster(
            home_hosts=rng.randint(2, 4),
            consolidation_hosts=rng.randint(1, 3),
            host_capacity_mib=4096.0 * rng.randint(2, 4),
        )
        hosts = cluster.hosts
        next_vm = [0]

        def fresh_vm():
            vm = VirtualMachine(next_vm[0], home_id)
            next_vm[0] += 1
            return vm

        for _ in range(40):
            op = rng.randrange(4)
            host = rng.choice(hosts)
            if op == 0 and host.is_powered:
                home_id = rng.choice(
                    [h.host_id for h in hosts if h.host_id != host.host_id]
                )
                vm = fresh_vm()
                if host.role is HostRole.CONSOLIDATION:
                    vm.become_partial(host.host_id, rng.uniform(32.0, 512.0))
                if host.can_fit(
                    vm.memory_mib
                    if vm.residency is Residency.FULL
                    else vm.working_set_mib
                ):
                    host.attach(vm)
            elif op == 1 and host.vm_count > 0:
                victim = rng.choice(host.vms())
                host.detach(victim.vm_id)
            elif op == 2 and host.is_powered and host.vm_count == 0:
                host.begin_suspend()
                if rng.random() < 0.8:
                    host.complete_suspend()
            elif op == 3 and host.power_state is PowerState.SLEEPING:
                host.begin_resume()
                if rng.random() < 0.8:
                    host.complete_resume()
            cluster.verify_indexes()
            cluster.check_invariants()


class TestLazyWorkingSetBattery:
    """Lazy materialization equals eager per-interval accumulation at
    every sample point, for 100 randomized growth configurations."""

    @pytest.mark.parametrize("seed", range(100))
    def test_lazy_equals_eager_everywhere(self, seed):
        rng = random.Random(seed)
        cap = rng.uniform(64.0, 4096.0)
        initial = rng.uniform(0.0, cap)
        delta = rng.choice([0.0, rng.uniform(0.01, cap / 10.0)])
        horizon = rng.randint(1, INTERVALS_PER_DAY)

        lazy = LazyWorkingSet(initial, delta, cap)
        mutating = LazyWorkingSet(initial, delta, cap)
        eager = initial
        for index in range(1, horizon + 1):
            eager = min(eager + delta, cap)  # the replaced recurrence
            assert lazy.size_at(index) == eager
            if rng.random() < 0.2:
                # Re-anchoring mid-stream must not perturb the replay.
                assert mutating.advance_to(index) == eager
        assert mutating.size_at(horizon) == eager

    def test_materializing_backwards_is_rejected(self):
        lazy = LazyWorkingSet(10.0, 1.0, 100.0)
        lazy.advance_to(7)
        with pytest.raises(ConfigError):
            lazy.size_at(6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LazyWorkingSet(-1.0, 1.0, 100.0)
        with pytest.raises(ConfigError):
            LazyWorkingSet(200.0, 1.0, 100.0)
        with pytest.raises(ConfigError):
            LazyWorkingSet(10.0, -1.0, 100.0)


class TestEdgeScheduleBattery:
    def test_edges_reconstruct_raw_traces(self):
        ensemble = generate_ensemble(40, DayType.WEEKDAY, seed=7)
        schedule = ActivityEdgeSchedule.compile(ensemble.traces)
        for vm_id, trace in enumerate(ensemble.traces):
            for index, active in enumerate(trace.intervals):
                assert schedule.activity_at(vm_id, index) == active

    @pytest.mark.parametrize("faults", ["none", "heavy"])
    @pytest.mark.parametrize("policy", [
        "OnlyPartial", "Default", "FulltoPartial", "NewHome",
        "GammaRobust@3",
    ])
    def test_debug_index_mode_stays_clean(self, monkeypatch, policy, faults):
        # Every shared move, and under heavy faults its rollback, runs
        # under the per-interval rescan.
        monkeypatch.setenv("REPRO_DEBUG_INDEXES", "1")
        config = FarmConfig(
            home_hosts=3, consolidation_hosts=1, vms_per_host=3,
            faults=fault_profile_by_name(faults),
        )
        simulation = FarmSimulation(
            config, policy, small_ensemble(9, seed=3), seed=1
        )
        assert simulation._debug_indexes
        simulation.run()  # verifies indexes at every interval boundary
        if faults == "heavy":
            assert simulation.faults.migration_aborts > 0
