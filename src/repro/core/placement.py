"""Greedy vacate planning (§3.1, "Where to migrate").

The paper's placement heuristic: sort compute hosts by total VM memory
demand ascending (cheapest to vacate first), and vacate as many whole
hosts as possible.  Each migrating VM's destination is drawn at random
from the consolidation hosts with enough free memory.  We prefer
already-powered consolidation hosts and only wake sleeping ones when the
powered set cannot fit a VM — consolidation hosts sleep by default and
"are awakened only to accommodate incoming VMs" (§3.1), so waking one
for a VM that fits elsewhere would burn energy for nothing.

The planner works on a *shadow* free-memory map so one planning pass
never over-commits a destination, and it supports first-fit/best-fit
strategies for the placement ablation bench.  The shadow also holds the
fit rule.  A Γ-robust subclass (:mod:`repro.policies.gamma`) sets a Γ
and a demand model; its plans then admit a VM only where the host
would still fit if any Γ of its VMs spiked.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left, insort
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.host import Host
from repro.cluster.topology import Cluster
from repro.core.plan import (
    ConsolidationPlan,
    HostVacatePlan,
    MigrationMode,
    PlannedMigration,
)
from repro.core.policies import PolicySpec
from repro.errors import ConfigError
from repro.vm.machine import VirtualMachine
from repro.vm.state import Residency, VmActivity
from repro.vm.workingset import WorkingSetSampler


class DestinationStrategy(enum.Enum):
    """How to pick among feasible destinations (paper: RANDOM)."""

    RANDOM = "random"
    FIRST_FIT = "first_fit"
    BEST_FIT = "best_fit"
    WORST_FIT = "worst_fit"


class _ShadowCapacity:
    """Free memory per consolidation host as the plan takes shape.

    Backed by parallel lists in consolidation-host order (ascending host
    id) rather than dicts: the candidate scan is the planner's innermost
    loop and runs tens of thousands of times per simulated day.  The
    scan order — and therefore every ``rng.choice`` draw downstream —
    matches the dict-insertion order of the mapping it replaces.

    With a ``gamma`` (Γ-robust planning), each host also keeps the
    *spike rooms* of its VMs: how far each may still grow past the size
    it was planned at.  A host then fits a VM only if its free memory
    covers the VM's size plus the Γ largest rooms, the VM's own
    included.  Rooms are stored negated in ascending order, largest
    room first, so a probe reads only the first Γ of them.
    """

    __slots__ = ("ids", "index", "free", "capacity", "effective", "woken",
                 "gamma", "rooms")

    def __init__(
        self,
        cluster: Cluster,
        gamma: Optional[int] = None,
        resident_room: Optional[Callable[[VirtualMachine], float]] = None,
    ) -> None:
        hosts = cluster.consolidation_hosts
        self.ids: List[int] = [host.host_id for host in hosts]
        self.index: Dict[int, int] = {
            host_id: position for position, host_id in enumerate(self.ids)
        }
        self.free: List[float] = [host.free_mib for host in hosts]
        self.capacity: List[float] = [host.capacity_mib for host in hosts]
        #: powered-or-woken, the effective state candidate scans test.
        self.effective: List[bool] = [host.is_powered for host in hosts]
        self.woken: set = set()
        #: None for point-estimate planning; Γ for Γ-robust planning.
        self.gamma = gamma
        #: per host, the negated spike rooms of its VMs, ascending.
        self.rooms: List[List[float]] = [[] for _ in hosts]
        if resident_room is not None:
            for rooms, host in zip(self.rooms, hosts):
                for vm in host.vms():
                    room = resident_room(vm)
                    if room > 0.0:
                        insort(rooms, -room)

    def top_rooms(self, position: int, room: float) -> float:
        """``sum(nlargest(gamma, rooms + [room]))`` for one host, bit for
        bit: the same values in the same order (the zero rooms
        :meth:`place` skips would only add ``+ 0.0``)."""
        top = self.rooms[position][:self.gamma]
        insort(top, -room)
        return sum([-negated for negated in top[:self.gamma]])

    def fits(self, position: int, size_mib: float, room: float,
             reserve_mib: float) -> bool:
        """Whether the host can take ``size_mib`` and keep ``reserve_mib``
        free, under Γ even if any Γ of its VMs (this one, with ``room``,
        included) spike."""
        free = self.free[position] + 1e-9
        if free < size_mib + reserve_mib:
            return False
        return not self.gamma or free >= (
            size_mib + self.top_rooms(position, room)
        ) + reserve_mib

    def candidates(self, size_mib: float, powered_only: bool, room: float,
                   headroom_fraction: float = 0.0) -> List[int]:
        """Hosts of one tier (powered-or-woken, or sleeping) that fit
        ``size_mib`` while keeping at least ``headroom_fraction`` of
        their capacity free afterwards."""
        effective = self.effective
        capacity = self.capacity
        return [
            host_id
            for position, host_id in enumerate(self.ids)
            if effective[position] == powered_only and self.fits(
                position, size_mib, room,
                headroom_fraction * capacity[position],
            )
        ]

    def place(self, host_id: int, size_mib: float, room: float) -> bool:
        """Plan a VM onto a host; True if that wakes the host."""
        position = self.index[host_id]
        self.free[position] -= size_mib
        if room:
            insort(self.rooms[position], -room)
        if self.effective[position]:
            return False
        self.woken.add(host_id)
        self.effective[position] = True
        return True

    def unplace(self, host_id: int, size_mib: float, room: float,
                woke: bool = False) -> None:
        """Undo a placement, and the wake it made if ``woke``: planning
        commits no wake, so a rolled-back one must not stay visible."""
        position = self.index[host_id]
        self.free[position] += size_mib
        if room:
            rooms = self.rooms[position]
            del rooms[bisect_left(rooms, -room)]
        if woke:
            self.woken.discard(host_id)
            self.effective[position] = False

    def rollback(self, placed: List[tuple]) -> None:
        """Undo ``(host_id, size_mib, room[, woke])`` placements.

        Point-estimate plans undo the oldest first and Γ-robust plans
        the newest first, as each planner always has: the order fixes
        the float sums of a host's free memory.
        """
        if self.gamma is not None:
            placed = placed[::-1]
        for entry in placed:
            self.unplace(*entry)


class GreedyVacatePlanner:
    """Builds :class:`ConsolidationPlan` objects from cluster state.

    ``gamma`` selects the fit rule.  ``None`` is the paper's planner:
    idle VMs move at a sampled working set, ``strategy`` picks among the
    hosts with room, and vacations run in the fused :meth:`_try_vacate`.
    A Γ-robust subclass sets Γ and supplies a demand model
    (:meth:`_idle_demand`, :meth:`_resident_room`); its placements then
    go through the shadow's robust fit rule.
    """

    #: Γ of the shadow's fit rule; ``None`` plans with point estimates.
    gamma: Optional[int] = None

    def __init__(
        self,
        policy: PolicySpec,
        working_sets: WorkingSetSampler,
        rng: Optional[random.Random],
        min_idle_intervals: int = 1,
        strategy: DestinationStrategy = DestinationStrategy.RANDOM,
    ) -> None:
        if min_idle_intervals < 1:
            raise ConfigError("min_idle_intervals must be >= 1")
        self.policy = policy
        self.working_sets = working_sets
        self.rng = rng
        self.min_idle_intervals = min_idle_intervals
        self.strategy = strategy

    # -- public API -----------------------------------------------------

    def plan(
        self, cluster: Cluster, compact_consolidation: bool = True
    ) -> ConsolidationPlan:
        """Plan this interval's vacations.

        Only fully-vacatable powered compute hosts are planned: hosts
        with VMs that cannot move (active VMs under OnlyPartial, or VMs
        that do not fit anywhere) stay as they are; a host screened out
        as unable to fit is skipped before any draw.  When
        ``compact_consolidation`` is set, lightly-loaded powered
        consolidation hosts are additionally emptied into their peers so
        they can sleep too.
        """
        if self.gamma is None:
            shadow = _ShadowCapacity(cluster)
            try_vacate = self._try_vacate
        else:
            shadow = _ShadowCapacity(cluster, self.gamma, self._resident_room)
            try_vacate = self._try_vacate_robust
        vacations: List[HostVacatePlan] = []
        stale = True
        for _, host, largest, bound in self._vacate_queue(cluster):
            if stale:
                # What an attempt can place at most: the fit rule adds
                # 1e-9 per host, and rounding far less than 1e-9 of all.
                most = max(shadow.free, default=0.0)
                total = 0.0
                for room in shadow.free:
                    if room > 0.0:
                        total += room
                total += 1e-9 * (len(shadow.free) + total)
                stale = False
            if largest > most + 1e-9 or bound > total:
                continue
            stale = True
            migrations = try_vacate(host, shadow)
            if migrations is not None:
                vacations.append(HostVacatePlan(host.host_id, migrations))
        compactions: List[HostVacatePlan] = []
        if compact_consolidation:
            compactions = self._plan_compaction(cluster, shadow)
        return ConsolidationPlan(vacations=vacations, compactions=compactions)

    #: Only consolidation hosts below this utilization are worth
    #: emptying; draining a well-used host just shifts load around.
    COMPACTION_LOW_WATER = 0.30
    #: Keep this much of each destination's capacity free so activating
    #: partial VMs can still convert to full in place — packing tight
    #: would trade one powered host for a storm of home wake-ups.
    COMPACTION_HEADROOM = 0.20

    def _plan_compaction(
        self, cluster: Cluster, shadow: _ShadowCapacity
    ) -> List[HostVacatePlan]:
        """Empty lightly-loaded powered consolidation hosts into peers.

        Destinations are restricted to consolidation hosts that are
        already powered (waking a host to let another sleep is a wash at
        best) and that are not themselves being compacted away.
        """
        candidates = sorted(
            (
                host
                for host in cluster.consolidation_hosts
                if host.is_powered
                and host.vm_count > 0
                and host.used_mib
                < self.COMPACTION_LOW_WATER * host.capacity_mib
            ),
            key=lambda host: host.used_mib,
        )
        compactions: List[HostVacatePlan] = []
        emptied: set = set()
        woken = shadow.woken
        for host in candidates:
            source_id = host.host_id
            migrations: List[PlannedMigration] = []
            placed: List[Tuple[int, float, float]] = []
            for vm in host.vms():
                size = vm.resident_mib
                room = self._resident_room(vm)
                choices = [
                    other_id
                    for other_id in shadow.candidates(
                        size, True, room, self.COMPACTION_HEADROOM
                    )
                    if other_id != source_id and other_id not in emptied
                    and other_id not in woken
                ]
                if not choices:
                    shadow.rollback(placed)
                    break
                destination = self._choose(choices, shadow)
                shadow.place(destination, size, room)
                placed.append((destination, size, room))
                partial = vm.residency is Residency.PARTIAL
                migrations.append(PlannedMigration(
                    vm.vm_id, source_id, destination,
                    MigrationMode.PARTIAL if partial else MigrationMode.FULL,
                    vm.working_set_mib if partial else None,
                ))
            else:
                compactions.append(HostVacatePlan(source_id, migrations))
                emptied.add(source_id)
                # The emptied host is no longer a destination.
                shadow.free[shadow.index[source_id]] = -1.0
        return compactions

    # -- internals --------------------------------------------------------

    def _vacate_queue(self, cluster: Cluster) -> List[tuple]:
        """Powered compute hosts with VMs as ``(demand, host, largest,
        bound)``, cheapest first, less any host with a VM that may not
        move (active when the policy moves none, or idle too briefly).
        ``demand`` (the paper's "total VM memory demand") counts active
        VMs in full and idle ones at the expected working set; ``bound``
        counts idle ones at the least one the sampler draws, which no
        plan undercuts (Γ plans take the mean), and ``largest`` is the
        largest active VM."""
        expected_ws = self.working_sets.expected_mib()
        least_ws = self.working_sets.min_mib
        min_idle = self.min_idle_intervals
        full_migrate_active = self.policy.full_migrate_active
        active = VmActivity.ACTIVE
        queue = []
        for host in cluster.home_hosts:
            if not host.is_powered or not host.vm_count:
                continue
            demand = largest = bound = 0.0
            for vm in host._vms.values():
                memory = vm.memory_mib
                if vm.activity is active:
                    if not full_migrate_active:
                        break
                    demand += memory
                    bound += memory
                    if memory > largest:
                        largest = memory
                else:
                    if min_idle > 1 and vm.idle_intervals < min_idle:
                        break
                    demand += expected_ws if expected_ws < memory else memory
                    bound += least_ws if least_ws < memory else memory
            else:
                queue.append((demand, host, largest, bound))
        queue.sort(key=itemgetter(0))
        return queue

    def _try_vacate(
        self, host: Host, shadow: _ShadowCapacity
    ) -> Optional[List[PlannedMigration]]:
        """Plan all of one host's VMs at point estimates, or None if any
        VM cannot move.

        This is the planner's innermost loop — thousands of VM
        placements per simulated day, on the hosts :meth:`plan`'s
        screen lets through — so the candidate scan and shadow
        placement are fused inline.  The working-set and destination
        draws go through ``WorkingSetSampler.sample`` and
        ``rng.choice``, in VM order, one working set per idle VM and
        one choice per random-strategy placement.
        """
        rng = self.rng
        sample_working_set = self.working_sets.sample
        min_idle = self.min_idle_intervals
        full_migrate_active = self.policy.full_migrate_active
        random_strategy = self.strategy is DestinationStrategy.RANDOM
        ids = shadow.ids
        free = shadow.free
        effective = shadow.effective
        host_index = shadow.index
        woken = shadow.woken
        positions = range(len(ids))
        source_id = host.host_id
        active = VmActivity.ACTIVE
        partial_mode = MigrationMode.PARTIAL
        full_mode = MigrationMode.FULL
        migrations: List[PlannedMigration] = []
        placed: List = []  # (position, size, woke) for rollback
        for vm in host._vms.values():
            if vm.activity is active:
                if not full_migrate_active:
                    break
                working_set = None
                size = vm.memory_mib
                mode = full_mode
            else:
                # Inlined VirtualMachine.idle_intervals (clock-anchored
                # streak or the eagerly maintained base count).
                anchor = vm._idle_anchor
                idle = (
                    vm._idle_base
                    if anchor is None
                    else vm._interval_clock.index - anchor + 1
                )
                if idle < min_idle:
                    break
                working_set = sample_working_set(rng)
                memory = vm.memory_mib
                if working_set > memory:
                    working_set = memory
                size = working_set
                mode = partial_mode
            # Inlined candidate scan: powered (or woken) hosts first,
            # then sleeping ones; ascending host id within each tier.
            candidates = []
            for position in positions:
                if free[position] + 1e-9 >= size and effective[position]:
                    candidates.append(ids[position])
            if not candidates:
                for position in positions:
                    if (
                        free[position] + 1e-9 >= size
                        and not effective[position]
                    ):
                        candidates.append(ids[position])
                if not candidates:
                    break
            if random_strategy:
                destination = rng.choice(candidates)
            else:
                destination = self._choose(candidates, shadow)
            position = host_index[destination]
            free[position] -= size
            woke = not effective[position]
            if woke:
                woken.add(destination)
                effective[position] = True
            placed.append((position, size, woke))
            migrations.append(
                PlannedMigration(
                    vm_id=vm.vm_id,
                    source_id=source_id,
                    destination_id=destination,
                    mode=mode,
                    working_set_mib=working_set,
                )
            )
        else:
            return migrations
        for position, size, woke in placed:
            free[position] += size
            if woke:
                effective[position] = False
                woken.discard(ids[position])
        return None

    def _try_vacate_robust(
        self, host: Host, shadow: _ShadowCapacity
    ) -> Optional[List[PlannedMigration]]:
        """:meth:`_try_vacate` under the Γ-robust fit rule.

        Active VMs move in full with no spike room, idle ones at the
        size and room of :meth:`_idle_demand`.  ``strategy`` picks among
        the powered-or-woken hosts that fit, else among sleeping ones.
        """
        migrations: List[PlannedMigration] = []
        placed: List[Tuple[int, float, float, bool]] = []
        for vm in host.vms():
            if vm.activity is VmActivity.ACTIVE:
                if not self.policy.full_migrate_active:
                    break
                size, room, mode = vm.memory_mib, 0.0, MigrationMode.FULL
            elif vm.idle_intervals < self.min_idle_intervals:
                break
            else:
                size, room = self._idle_demand(vm)
                mode = MigrationMode.PARTIAL
            candidates = shadow.candidates(size, True, room) or (
                shadow.candidates(size, False, room)
            )
            if not candidates:
                break
            destination = self._choose(candidates, shadow)
            woke = shadow.place(destination, size, room)
            placed.append((destination, size, room, woke))
            migrations.append(PlannedMigration(
                vm.vm_id, host.host_id, destination, mode,
                size if mode is MigrationMode.PARTIAL else None,
            ))
        else:
            return migrations
        shadow.rollback(placed)
        return None

    # -- demand model -----------------------------------------------------

    def _idle_demand(self, vm: VirtualMachine) -> Tuple[float, float]:
        """Size and spike room, MiB, at which a Γ-robust planner plans
        an idle VM.  The paper's planner samples working sets instead."""
        raise NotImplementedError("Γ-robust planners supply a demand model")

    def _resident_room(self, vm: VirtualMachine) -> float:
        """Spike room, MiB, a VM already on a consolidation host may
        still claim there; point estimates plan none."""
        return 0.0

    def _choose(self, candidates: List[int], shadow: _ShadowCapacity) -> int:
        if self.strategy is DestinationStrategy.RANDOM:
            return self.rng.choice(candidates)
        if self.strategy is DestinationStrategy.FIRST_FIT:
            return min(candidates)
        if self.strategy is DestinationStrategy.BEST_FIT:
            return min(
                candidates,
                key=lambda host_id: shadow.free[shadow.index[host_id]],
            )
        return max(
            candidates,
            key=lambda host_id: shadow.free[shadow.index[host_id]],
        )
