"""Greedy vacate planning and consolidation-host compaction."""

import random

import pytest

from repro.cluster import Cluster
from repro.core import (
    FULL_TO_PARTIAL,
    GreedyVacatePlanner,
    MigrationMode,
    ONLY_PARTIAL,
    DestinationStrategy,
    gamma_robust,
)
from repro.core.placement import _ShadowCapacity
from repro.policies import DemandIntervalModel, GammaRobustPlanner
from repro.vm import VirtualMachine, VmActivity, WorkingSetSampler


def build_cluster(homes=2, consolidation=2, capacity=4 * 4096.0):
    return Cluster(homes, consolidation, capacity)


def add_vm(cluster, vm_id, home_id, active=False, idle_intervals=3):
    vm = VirtualMachine(vm_id, home_id, 4096.0)
    vm.set_activity(VmActivity.ACTIVE if active else VmActivity.IDLE)
    vm.idle_intervals = 0 if active else idle_intervals
    cluster.host(home_id).attach(vm)
    return vm


def make_planner(policy=FULL_TO_PARTIAL, strategy=DestinationStrategy.RANDOM,
                 min_idle_intervals=1):
    return GreedyVacatePlanner(
        policy=policy,
        working_sets=WorkingSetSampler(),
        rng=random.Random(0),
        min_idle_intervals=min_idle_intervals,
        strategy=strategy,
    )


def destination_ids(plan):
    """Destination host ids of every planned vacation migration."""
    return [
        migration.destination_id
        for vacation in plan.vacations
        for migration in vacation.migrations
    ]


class TestGreedyVacate:
    def test_idle_homes_are_fully_vacated(self):
        cluster = build_cluster()
        for vm_id in range(4):
            add_vm(cluster, vm_id, home_id=vm_id // 2)
        plan = make_planner().plan(cluster)
        assert len(plan.vacations) == 2
        for vacation in plan.vacations:
            assert vacation.partial_count == 2
            assert vacation.full_count == 0

    def test_active_vms_move_as_full_migrations(self):
        cluster = build_cluster(homes=1)
        add_vm(cluster, 1, 0, active=True)
        add_vm(cluster, 2, 0)
        plan = make_planner().plan(cluster)
        assert len(plan.vacations) == 1
        modes = {m.vm_id: m.mode for m in plan.vacations[0].migrations}
        assert modes[1] is MigrationMode.FULL
        assert modes[2] is MigrationMode.PARTIAL

    def test_only_partial_cannot_vacate_hosts_with_active_vms(self):
        cluster = build_cluster(homes=2)
        add_vm(cluster, 1, 0, active=True)
        add_vm(cluster, 2, 0)
        add_vm(cluster, 3, 1)
        plan = make_planner(policy=ONLY_PARTIAL).plan(cluster)
        assert [v.host_id for v in plan.vacations] == [1]

    def test_cheapest_host_vacated_first(self):
        # Host 1 has one idle VM (cheap); host 0 has an active VM (4 GiB
        # of demand).  With capacity for only one VM-ish, the cheap host
        # must win.
        cluster = build_cluster(homes=2, consolidation=1, capacity=4096.0 + 200.0)
        add_vm(cluster, 1, 0, active=True)
        add_vm(cluster, 2, 1)
        plan = make_planner().plan(cluster)
        assert [v.host_id for v in plan.vacations] == [1]

    def test_partial_vms_never_target_their_home(self):
        cluster = build_cluster()
        add_vm(cluster, 1, 0)
        plan = make_planner().plan(cluster)
        destination = plan.vacations[0].migrations[0].destination_id
        assert destination in {h.host_id for h in cluster.consolidation_hosts}

    def test_no_partial_plan_for_fresh_idle_vms(self):
        cluster = build_cluster(homes=1)
        add_vm(cluster, 1, 0, idle_intervals=1)
        plan = make_planner(min_idle_intervals=3).plan(cluster)
        assert plan.is_empty

    def _block_consolidation(self, cluster, host_id, blocker_id=99):
        """Pre-load a consolidation host with one full VM."""
        blocker = VirtualMachine(blocker_id, 0, 4096.0)
        blocker.full_migrate(host_id)
        cluster.host(host_id).attach(blocker)

    def test_all_or_nothing_vacation(self):
        # One VM fits, the second does not: the host must not be
        # half-vacated.
        cluster = build_cluster(homes=1, consolidation=1, capacity=2 * 4096.0)
        self._block_consolidation(cluster, 1)  # leaves room for one VM
        add_vm(cluster, 1, 0, active=True)
        add_vm(cluster, 2, 0, active=True)
        plan = make_planner().plan(cluster)
        assert plan.is_empty

    def test_rollback_releases_shadow_capacity(self):
        # Host 0 cannot be vacated (two actives, room for one); its
        # tentative placement must not block host 1's single VM.
        cluster = build_cluster(
            homes=2, consolidation=1, capacity=2 * 4096.0 + 300.0
        )
        self._block_consolidation(cluster, 2)
        add_vm(cluster, 1, 0, active=True)
        add_vm(cluster, 2, 0, active=True)
        add_vm(cluster, 3, 1)
        plan = make_planner().plan(cluster)
        assert [v.host_id for v in plan.vacations] == [1]

    def test_powered_destinations_preferred_over_waking(self):
        cluster = build_cluster(homes=1, consolidation=2)
        cluster.host(2).start_asleep()
        add_vm(cluster, 1, 0)
        plan = make_planner().plan(cluster)
        assert destination_ids(plan) == [1]

    def test_sleeping_hosts_woken_when_needed(self):
        cluster = build_cluster(homes=1, consolidation=1)
        cluster.host(1).start_asleep()
        add_vm(cluster, 1, 0)
        plan = make_planner().plan(cluster)
        assert destination_ids(plan) == [1]

    def test_sleeping_home_hosts_are_not_planned(self):
        cluster = build_cluster(homes=1)
        add_vm(cluster, 1, 0)
        cluster.host(0).detach(1)
        cluster.host(0).begin_suspend()
        plan = make_planner().plan(cluster)
        assert plan.is_empty


class TestRolledBackWake:
    """A rolled-back attempt leaves no sleeping host marked as woken.

    Host 0's two idle VMs are planned at 150 MiB each.  The powered
    consolidation host (1) has 100 MiB free, so the first VM wakes the
    sleeping one (2, 200 MiB free) and the second fits nowhere.  The
    host passes the screen (it needs at least 32 MiB of 300 free), so
    the attempt runs and rolls back.
    """

    SAMPLER = WorkingSetSampler(mean_mib=150.0, std_mib=0.0)

    def _cluster(self):
        cluster = build_cluster(homes=1, consolidation=2, capacity=300.0)
        for vm_id in (1, 2):
            vm = VirtualMachine(vm_id, 0, 150.0)
            vm.set_activity(VmActivity.IDLE)
            vm.idle_intervals = 3
            cluster.host(0).attach(vm)
        filler = VirtualMachine(99, 0, 4096.0)
        filler.become_partial(1, 200.0)
        cluster.host(1).attach(filler)
        cluster.host(2).capacity_mib = 200.0
        cluster.host(2).start_asleep()
        return cluster

    def _assert_restored(self, shadow):
        assert shadow.woken == set()
        assert shadow.effective == [True, False]
        assert shadow.free == [100.0, 200.0]

    def test_point_estimate_rollback_reverts_the_wake(self):
        cluster = self._cluster()
        planner = GreedyVacatePlanner(
            FULL_TO_PARTIAL, self.SAMPLER, random.Random(0)
        )
        shadow = _ShadowCapacity(cluster)
        assert planner._try_vacate(cluster.host(0), shadow) is None
        self._assert_restored(shadow)

    def test_robust_rollback_reverts_the_wake(self):
        cluster = self._cluster()
        planner = GammaRobustPlanner(
            gamma_robust(1), self.SAMPLER,
            DemandIntervalModel(self.SAMPLER, root_seed=0),
        )
        shadow = _ShadowCapacity(cluster, 1, planner._resident_room)
        assert planner._try_vacate_robust(cluster.host(0), shadow) is None
        self._assert_restored(shadow)


class TestDestinationStrategies:
    def _loaded_cluster(self):
        cluster = build_cluster(homes=1, consolidation=3)
        # Pre-load consolidation hosts unevenly.
        filler = VirtualMachine(90, 0, 4096.0)
        filler.become_partial(2, 3000.0)
        cluster.host(2).attach(filler)
        add_vm(cluster, 1, 0)
        return cluster

    def test_first_fit_picks_lowest_id(self):
        plan = make_planner(strategy=DestinationStrategy.FIRST_FIT).plan(
            self._loaded_cluster()
        )
        assert plan.vacations[0].migrations[0].destination_id == 1

    def test_best_fit_picks_fullest(self):
        plan = make_planner(strategy=DestinationStrategy.BEST_FIT).plan(
            self._loaded_cluster()
        )
        assert plan.vacations[0].migrations[0].destination_id == 2

    def test_worst_fit_picks_emptiest(self):
        plan = make_planner(strategy=DestinationStrategy.WORST_FIT).plan(
            self._loaded_cluster()
        )
        assert plan.vacations[0].migrations[0].destination_id in (1, 3)


class TestCompaction:
    def _cluster_with_light_consolidation_host(self):
        cluster = build_cluster(homes=1, consolidation=2, capacity=10_000.0)
        light = VirtualMachine(50, 0, 4096.0)
        light.become_partial(2, 150.0)
        cluster.host(2).attach(light)
        peer = VirtualMachine(51, 0, 4096.0)
        peer.become_partial(1, 150.0)
        cluster.host(1).attach(peer)
        return cluster

    def test_light_host_compacts_into_peer(self):
        cluster = self._cluster_with_light_consolidation_host()
        plan = make_planner().plan(cluster, compact_consolidation=True)
        assert len(plan.compactions) == 1
        compaction = plan.compactions[0]
        migration = compaction.migrations[0]
        assert migration.mode is MigrationMode.PARTIAL
        assert migration.working_set_mib == pytest.approx(150.0)

    def test_compaction_can_be_disabled(self):
        cluster = self._cluster_with_light_consolidation_host()
        plan = make_planner().plan(cluster, compact_consolidation=False)
        assert plan.compactions == []

    def test_well_used_hosts_not_compacted(self):
        cluster = build_cluster(homes=1, consolidation=2, capacity=10_000.0)
        heavy = VirtualMachine(50, 0, 4096.0)
        heavy.become_partial(1, 4000.0)  # 40% used: above low water
        cluster.host(1).attach(heavy)
        plan = make_planner().plan(cluster, compact_consolidation=True)
        assert plan.compactions == []

    def test_compaction_preserves_destination_headroom(self):
        cluster = build_cluster(homes=1, consolidation=2, capacity=1000.0)
        light = VirtualMachine(50, 0, 4096.0)
        light.become_partial(2, 200.0)
        cluster.host(2).attach(light)
        nearly_full = VirtualMachine(51, 0, 4096.0)
        nearly_full.become_partial(1, 700.0)  # only 300 free, 20% = 200 reserve
        cluster.host(1).attach(nearly_full)
        plan = make_planner().plan(cluster, compact_consolidation=True)
        # Moving 200 into 300-free would leave less than the 200 MiB
        # headroom reserve; both hosts stay as they are.
        assert plan.compactions == []
