"""Property battery for Γ-robust first-fit (100 seeded instances).

Every instance comes from :func:`repro.policies.seeded_instance`, so the
battery is deterministic: the same seeds produce the same items, Γ, and
packings on every run.  The properties pinned here are the ones the
Γ-robustness construction promises by design:

* the robust invariant — any Γ VMs of a bin at their interval maximum
  plus the rest at nominal still fit (checked both through
  :func:`robust_load` and by exhaustive subset enumeration);
* packing integrity — every item lands in exactly one bin, no bin is
  empty;
* Γ = 0 degenerates *exactly* to point-estimate First-Fit over the
  nominal demands (compared against an independent re-implementation);
* monotonicity — the heuristic's bin count never decreases as Γ grows.

The farm-facing planner gets its own battery at the end: every
consolidation host a ``GammaRobust@Γ`` plan sends VMs to ends Γ-robust
by the pure-core :func:`robust_fits`, and the shadow index's sorted
spike rooms reproduce ``sum(nlargest(Γ, spikes + [deviation]))`` bit
for bit.
"""

import heapq
import random
from itertools import combinations

import pytest

from repro.cluster import Cluster
from repro.core.placement import _ShadowCapacity
from repro.core.plan import MigrationMode
from repro.core import gamma_robust
from repro.errors import ConfigError
from repro.policies import (
    DemandIntervalModel,
    GammaItem,
    GammaRobustPlanner,
    gamma_first_fit,
    robust_fits,
    robust_load,
    seeded_instance,
)
from repro.vm import Residency, VirtualMachine, VmActivity, WorkingSetSampler

#: The battery's instance seeds; 100 deterministic randomized packings.
SEEDS = range(100)

_EPS = 1e-9


@pytest.fixture(scope="module", params=SEEDS)
def instance(request):
    return seeded_instance(request.param)


def test_battery_is_deterministic():
    first = seeded_instance(7)
    again = seeded_instance(7)
    assert first == again
    assert len(first.items) >= 3


def test_robust_invariant_holds_per_bin(instance):
    """Every packed bin satisfies sum(uc) + top-Γ(ur) <= capacity."""
    bins = gamma_first_fit(instance.items, instance.gamma, instance.capacity)
    for packed in bins:
        assert robust_fits(packed, instance.gamma, instance.capacity)
        assert robust_load(packed, instance.gamma) <= (
            instance.capacity + _EPS
        )


def test_robust_invariant_exhaustive_subsets(instance):
    """The invariant, spelled out: pick ANY Γ VMs of a bin, spike them
    to their interval maximum, leave the rest at nominal — it fits.

    Enumerated over every Γ-subset of every bin, independently of the
    ``nlargest`` shortcut inside :func:`robust_load`."""
    bins = gamma_first_fit(instance.items, instance.gamma, instance.capacity)
    for packed in bins:
        nominal_total = sum(item.nominal for item in packed)
        spikers = min(instance.gamma, len(packed))
        for chosen in combinations(packed, spikers):
            load = nominal_total + sum(item.deviation for item in chosen)
            assert load <= instance.capacity + _EPS


def test_packing_integrity(instance):
    """Each item appears exactly once; no bin is left empty."""
    bins = gamma_first_fit(instance.items, instance.gamma, instance.capacity)
    assert all(packed for packed in bins)
    packed_ids = [item.item_id for packed in bins for item in packed]
    assert sorted(packed_ids) == sorted(
        item.item_id for item in instance.items
    )
    assert len(packed_ids) == len(set(packed_ids))


def _point_estimate_first_fit(items, capacity):
    """Plain nominal-demand First-Fit, re-implemented independently."""
    bins, loads = [], []
    for item in items:
        for position, load in enumerate(loads):
            if load + item.nominal <= capacity + _EPS:
                bins[position].append(item)
                loads[position] += item.nominal
                break
        else:
            bins.append([item])
            loads.append(item.nominal)
    return bins


def test_gamma_zero_is_point_estimate_first_fit(instance):
    """Γ = 0 must reproduce classic First-Fit bin-for-bin, not merely
    match its bin count: deviations become entirely invisible."""
    robust = gamma_first_fit(instance.items, 0, instance.capacity)
    classic = _point_estimate_first_fit(instance.items, instance.capacity)
    assert robust == classic


def test_bin_count_monotone_in_gamma(instance):
    """More protection can never need fewer hosts: the heuristic's bin
    count is non-decreasing in Γ on every battery instance."""
    counts = [
        len(gamma_first_fit(instance.items, gamma, instance.capacity))
        for gamma in range(5)
    ]
    assert counts == sorted(counts)


def test_robust_load_saturates_at_item_count():
    """Γ beyond the bin population adds nothing: every item is already
    spiking."""
    items = [GammaItem(0, 10.0, 4.0), GammaItem(1, 20.0, 6.0)]
    saturated = robust_load(items, 2)
    assert saturated == pytest.approx(40.0)
    assert robust_load(items, 5) == pytest.approx(saturated)


def test_oversized_item_is_rejected():
    """An item whose lone worst case exceeds the capacity can never be
    packed; the heuristic refuses the instance up front."""
    items = [GammaItem(0, 6.0, 5.0)]
    with pytest.raises(ConfigError):
        gamma_first_fit(items, 1, 8.0)
    # ...but with Γ = 0 the deviation is dormant and the item fits.
    assert len(gamma_first_fit(items, 0, 8.0)) == 1


# ----------------------------------------------------------------------
# the farm-facing planner
# ----------------------------------------------------------------------

#: Seeds of the farm-facing battery: 100 small random clusters.
CLUSTER_SEEDS = range(100)

VM_MIB = 4096.0


def _random_cluster(seed):
    """Homes of active, idle and too-freshly-idle VMs; consolidation
    hosts that are asleep or hold resident partial and full VMs."""
    rng = random.Random(seed)
    homes = rng.randint(2, 6)
    consolidation = rng.randint(2, 4)
    slots = rng.choice([3, 4, 6, 8])
    cluster = Cluster(homes, consolidation, slots * VM_MIB)
    vm_ids = iter(range(10_000))
    for home_id in range(homes):
        for _ in range(rng.randint(1, slots)):
            vm = VirtualMachine(next(vm_ids), home_id, VM_MIB)
            roll = rng.random()
            vm.set_activity(
                VmActivity.ACTIVE if roll < 0.25 else VmActivity.IDLE
            )
            vm.idle_intervals = 0 if roll < 0.3 else rng.randint(1, 4)
            cluster.host(home_id).attach(vm)
    for host in cluster.consolidation_hosts:
        if rng.random() < 0.3:
            host.start_asleep()
            continue
        for _ in range(rng.randint(0, 3)):
            home_id = rng.randrange(homes)
            vm = VirtualMachine(next(vm_ids), home_id, VM_MIB)
            if rng.random() < 0.8:
                vm.become_partial(host.host_id, rng.uniform(50.0, 1500.0))
            else:
                vm.full_migrate(host.host_id)
            if host.can_fit(vm.resident_mib):
                host.attach(vm)
    return cluster


def _spike_room(vm, intervals):
    """Remaining spike room of a resident VM, derived independently."""
    if vm.residency is not Residency.PARTIAL:
        return 0.0
    nominal, deviation = intervals.interval(vm)
    return max(0.0, min(nominal + deviation, vm.memory_mib) - vm.resident_mib)


def _final_items(cluster, plan, intervals):
    """Per consolidation host: the GammaItems it holds once the plan
    has run (residents that stay, plus every VM planned onto it)."""
    vms = {
        vm.vm_id: vm for host in cluster.hosts for vm in host.vms()
    }
    compacted = {
        migration.vm_id
        for compaction in plan.compactions
        for migration in compaction.migrations
    }
    items = {host.host_id: [] for host in cluster.consolidation_hosts}
    for host in cluster.consolidation_hosts:
        for vm in host.vms():
            if vm.vm_id not in compacted:
                items[host.host_id].append(GammaItem(
                    vm.vm_id, vm.resident_mib, _spike_room(vm, intervals)
                ))
    for vacation in plan.vacations:
        for migration in vacation.migrations:
            vm = vms[migration.vm_id]
            if migration.mode is MigrationMode.FULL:
                item = GammaItem(vm.vm_id, vm.memory_mib, 0.0)
            else:
                nominal, deviation = intervals.interval(vm)
                assert migration.working_set_mib == nominal
                item = GammaItem(vm.vm_id, nominal, deviation)
            items[migration.destination_id].append(item)
    for compaction in plan.compactions:
        for migration in compaction.migrations:
            vm = vms[migration.vm_id]
            items[migration.destination_id].append(GammaItem(
                vm.vm_id, vm.resident_mib, _spike_room(vm, intervals)
            ))
    return items


@pytest.mark.parametrize("gamma", range(4))
def test_planner_destinations_end_gamma_robust(gamma):
    """Every host a ``GammaRobust@Γ`` plan sends VMs to still fits if
    any Γ of its VMs spike (pure-core :func:`robust_fits`)."""
    sampler = WorkingSetSampler()
    destinations = woken = compacted = 0
    for seed in CLUSTER_SEEDS:
        cluster = _random_cluster(seed)
        intervals = DemandIntervalModel(sampler, root_seed=seed)
        planner = GammaRobustPlanner(gamma_robust(gamma), sampler, intervals)
        plan = planner.plan(cluster)
        items = _final_items(cluster, plan, intervals)
        targets = {
            migration.destination_id
            for vacate in plan.vacations + plan.compactions
            for migration in vacate.migrations
        }
        for host_id in targets:
            host = cluster.host(host_id)
            assert robust_fits(items[host_id], gamma, host.capacity_mib), (
                f"seed {seed}: host {host_id} is not {gamma}-robust"
            )
            woken += not host.is_powered
        destinations += len(targets)
        compacted += len(plan.compactions)
    # Non-vacuity: the battery plans vacations, wakes sleeping hosts
    # and compacts.
    assert destinations > 100
    assert woken > 0
    assert compacted > 0


def _bits(value):
    return float(value).hex()


@pytest.mark.parametrize("seed", range(40))
def test_shadow_top_rooms_are_nlargest_sums(seed):
    """The shadow's sorted spike rooms give exactly
    ``sum(nlargest(Γ, spikes + [deviation]))`` — ties, zeros and Γ
    beyond the spike count included — before and after rollbacks."""
    rng = random.Random(seed)
    gamma = rng.randint(0, 6)
    shadow = _ShadowCapacity(Cluster(1, 1, 1e12), gamma)
    host_id = shadow.ids[0]
    pool = [0.0, 0.0, 1.5, 1.5, 0.1, 0.2, 0.3] + [
        rng.uniform(0.0, 3000.0) for _ in range(6)
    ]
    spikes = []

    def check():
        for deviation in pool + [rng.uniform(0.0, 3000.0)]:
            expected = sum(heapq.nlargest(gamma, spikes + [deviation]))
            assert _bits(shadow.top_rooms(0, deviation)) == _bits(expected)

    for _ in range(8):
        placed = []
        for _ in range(rng.randint(1, 6)):
            room = rng.choice(pool)
            shadow.place(host_id, 1.0, room)
            spikes.append(room)
            placed.append((host_id, 1.0, room))
            check()
        if rng.random() < 0.5:
            shadow.rollback(placed)
            del spikes[len(spikes) - len(placed):]
            check()
