"""The host model: memory accounting, power state, and hosted state.

A host tracks two distinct collections:

* **running VMs** — VMs scheduled on this host; each occupies its
  resident size (full allocation for full VMs, working set for partial
  VMs) of the host's memory capacity;
* **served images** — full memory images of partial VMs that are homed
  here but run elsewhere; these live in the host's DRAM (or on its
  memory-server store once the host sleeps) and are what the low-power
  memory server exports.

Only a host with no running VMs may suspend; served images do not block
sleep — letting the host sleep through remote page requests is exactly
the point of the memory-server design (§3.3).

VM attachment is a *logical* operation: the execution engine may attach
VMs to a host that is still completing its resume (arrivals are planned
while Wake-on-LAN is in flight, §4.1); the engine is responsible for not
scheduling VM execution before the host is powered.  Full/partial counts
and the partial-resident fraction are maintained incrementally, so the
power model can query them in O(1); residency changes of an *attached*
VM must therefore go through :meth:`convert_vm_full_in_place` /
:meth:`grow_partial_vm` rather than mutating the VM directly.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Set

from repro.cluster.power import PowerState, check_transition
from repro.errors import CapacityError, MigrationError, PowerStateError
from repro.vm.machine import VirtualMachine
from repro.vm.state import Residency


class HostRole(enum.Enum):
    """Cluster role (Figure 3)."""

    COMPUTE = "compute"
    CONSOLIDATION = "consolidation"


class Host:
    """One physical server in the cluster."""

    __slots__ = (
        "host_id",
        "role",
        "capacity_mib",
        "_power_state",
        "_power_listener",
        "_vms",
        "_used_mib",
        "_full_count",
        "_partial_fraction",
        "_served_images",
        "memory_server_enabled",
        "memory_server_failed",
    )

    def __init__(
        self,
        host_id: int,
        role: HostRole,
        capacity_mib: float,
        memory_server_enabled: bool = True,
    ) -> None:
        if capacity_mib <= 0.0:
            raise CapacityError(f"host capacity must be positive, got {capacity_mib}")
        self.host_id = host_id
        self.role = role
        self.capacity_mib = capacity_mib
        self._power_state = PowerState.POWERED
        self._power_listener = None
        self._vms: Dict[int, VirtualMachine] = {}
        self._used_mib = 0.0
        self._full_count = 0
        self._partial_fraction = 0.0
        self._served_images: Set[int] = set()
        #: Compute hosts carry a memory server; the evaluation never powers
        #: the ones attached to consolidation hosts (§5.1).
        self.memory_server_enabled = memory_server_enabled
        #: Set by fault injection when the memory server dies; a failed
        #: server draws no power and cannot serve pages, so a sleeping
        #: host with served images must be force-woken.
        self.memory_server_failed = False

    # -- memory accounting ----------------------------------------------

    @property
    def used_mib(self) -> float:
        """Memory occupied by running VMs."""
        return self._used_mib

    @property
    def free_mib(self) -> float:
        return self.capacity_mib - self._used_mib

    def can_fit(self, size_mib: float) -> bool:
        """Whether ``size_mib`` more memory fits on this host."""
        # A small epsilon absorbs float accumulation error.
        return size_mib <= self.free_mib + 1e-9

    def recompute_used_mib(self) -> float:
        """Recompute used memory from first principles (test invariant)."""
        return sum(vm.resident_mib for vm in self._vms.values())

    # -- running VMs -------------------------------------------------------

    @property
    def vm_count(self) -> int:
        return len(self._vms)

    @property
    def vm_ids(self) -> List[int]:
        return list(self._vms)

    def vms(self) -> List[VirtualMachine]:
        return list(self._vms.values())

    def has_vm(self, vm_id: int) -> bool:
        return vm_id in self._vms

    def get_vm(self, vm_id: int) -> VirtualMachine:
        try:
            return self._vms[vm_id]
        except KeyError:
            raise MigrationError(f"VM {vm_id} is not running on host {self.host_id}")

    @property
    def full_vm_count(self) -> int:
        return self._full_count

    @property
    def partial_vm_count(self) -> int:
        return len(self._vms) - self._full_count

    @property
    def partial_resident_fraction(self) -> float:
        """Sum over partial VMs of resident/allocated memory (power model)."""
        return self._partial_fraction

    def attach(self, vm: VirtualMachine) -> None:
        """Place a VM on this host, reserving its resident memory.

        The resident size and fit check are computed inline rather than
        through ``vm.resident_mib`` / :meth:`can_fit` — attach/detach sit
        on the migration hot path, and the float expressions here mirror
        those helpers exactly.
        """
        vms = self._vms
        vm_id = vm.vm_id
        if vm_id in vms:
            raise MigrationError(
                f"VM {vm_id} is already on host {self.host_id}"
            )
        full = vm.residency is Residency.FULL
        if full:
            size = vm.memory_mib
        else:
            size = vm.working_set_mib
            if size is None:
                raise MigrationError(f"partial VM {vm_id} has no working set")
        if size > self.capacity_mib - self._used_mib + 1e-9:
            raise CapacityError(
                f"host {self.host_id}: {size:.0f} MiB does not fit "
                f"({self.free_mib:.0f} MiB free)"
            )
        vms[vm_id] = vm
        self._used_mib += size
        if full:
            self._full_count += 1
        else:
            self._partial_fraction += size / vm.memory_mib

    def detach(self, vm_id: int) -> VirtualMachine:
        """Remove a VM from this host, releasing its resident memory."""
        vms = self._vms
        vm = vms.get(vm_id)
        if vm is None:
            raise MigrationError(
                f"VM {vm_id} is not running on host {self.host_id}"
            )
        del vms[vm_id]
        full = vm.residency is Residency.FULL
        if full:
            size = vm.memory_mib
        else:
            size = vm.working_set_mib
            if size is None:
                raise MigrationError(f"partial VM {vm_id} has no working set")
        used = self._used_mib - size
        self._used_mib = used if used > 0.0 else 0.0
        if full:
            self._full_count -= 1
        else:
            fraction = self._partial_fraction - size / vm.memory_mib
            self._partial_fraction = fraction if fraction > 0.0 else 0.0
        return vm

    def convert_vm_full_in_place(self, vm_id: int) -> None:
        """Convert an attached partial VM to full (§3.2 Default policy
        with spare capacity): the remaining image is pulled in and this
        host becomes the VM's new home."""
        vm = self.get_vm(vm_id)
        if vm.residency is not Residency.PARTIAL:
            raise MigrationError(f"VM {vm_id} is not partial")
        old_resident = vm.resident_mib
        old_fraction = vm.resident_fraction
        growth = vm.memory_mib - old_resident
        if not self.can_fit(growth):
            raise CapacityError(
                f"host {self.host_id}: conversion of VM {vm_id} needs "
                f"{growth:.0f} MiB ({self.free_mib:.0f} MiB free)"
            )
        vm.become_full_in_place()
        self._used_mib += growth
        self._full_count += 1
        self._partial_fraction = max(0.0, self._partial_fraction - old_fraction)

    def grow_partial_vm(self, vm_id: int, delta_mib: float) -> None:
        """Grow an attached partial VM's working set (demand faults).

        Raises :class:`CapacityError` when the growth does not fit; the
        caller then falls back to the capacity-exhausted policy.
        """
        vm = self.get_vm(vm_id)
        if vm.residency is not Residency.PARTIAL:
            raise MigrationError(f"VM {vm_id} is not partial")
        if delta_mib < 0.0:
            raise MigrationError("working-set growth must be non-negative")
        if not self.can_fit(delta_mib):
            raise CapacityError(
                f"host {self.host_id}: growth of {delta_mib:.0f} MiB does "
                f"not fit ({self.free_mib:.0f} MiB free)"
            )
        old_resident = vm.resident_mib
        vm.grow_working_set(delta_mib)
        actual = vm.resident_mib - old_resident  # capped at the allocation
        self._used_mib += actual
        self._partial_fraction += actual / vm.memory_mib

    # -- served memory images ------------------------------------------------

    @property
    def served_image_count(self) -> int:
        return len(self._served_images)

    @property
    def served_image_ids(self) -> Set[int]:
        return set(self._served_images)

    def add_served_image(self, vm_id: int) -> None:
        """Record that this host serves the full image of a partial VM."""
        self._served_images.add(vm_id)

    def remove_served_image(self, vm_id: int) -> None:
        """Drop a served image (VM reintegrated, re-homed, or destroyed)."""
        self._served_images.discard(vm_id)

    # -- power state ----------------------------------------------------------

    @property
    def power_state(self) -> PowerState:
        return self._power_state

    @power_state.setter
    def power_state(self, state: PowerState) -> None:
        """Take one edge of the power machine, notifying the cluster's
        index listener.

        This is the one checked transition: an edge outside the declared
        table raises :class:`PowerStateError` and leaves the state as it
        was.  Setup that needs a sleeping host uses :meth:`start_asleep`.
        """
        previous = self._power_state
        check_transition(previous, state)
        self._power_state = state
        if self._power_listener is not None:
            self._power_listener(self, previous, state)

    def start_asleep(self) -> None:
        """Setup only: put a powered, empty host straight to sleep.

        Consolidation hosts begin asleep (§3.1).  POWERED -> SLEEPING is
        not an edge of the machine, so no transition is checked; the
        listener still fires so the cluster's powered counts follow.
        """
        if self._power_state is not PowerState.POWERED or self._vms:
            raise PowerStateError(
                f"host {self.host_id} is {self._power_state.value} with "
                f"{len(self._vms)} VM(s); only a powered, empty host can "
                f"start asleep"
            )
        self._power_state = PowerState.SLEEPING
        if self._power_listener is not None:
            self._power_listener(self, PowerState.POWERED, PowerState.SLEEPING)

    def set_power_listener(self, listener) -> None:
        """Register ``listener(host, old_state, new_state)`` for power
        edges; the cluster uses this to keep powered-count indexes hot.
        Pass ``None`` to detach."""
        self._power_listener = listener

    @property
    def is_powered(self) -> bool:
        return self._power_state is PowerState.POWERED

    @property
    def is_sleeping(self) -> bool:
        return self._power_state is PowerState.SLEEPING

    def begin_suspend(self) -> None:
        """Start suspending to RAM; illegal while any VM runs here."""
        if self._vms:
            raise PowerStateError(
                f"host {self.host_id} still runs {len(self._vms)} VM(s); "
                f"cannot suspend"
            )
        self.power_state = PowerState.SUSPENDING

    def complete_suspend(self) -> None:
        self.power_state = PowerState.SLEEPING

    def begin_resume(self) -> None:
        """Start resuming (triggered by Wake-on-LAN from the manager)."""
        self.power_state = PowerState.RESUMING

    def complete_resume(self) -> None:
        self.power_state = PowerState.POWERED

    def fail_resume(self) -> None:
        """A resume attempt failed: fall back to sleep (fault injection).

        The attempt paid resume power for its full duration; the caller
        owns retry scheduling and backoff.
        """
        self.power_state = PowerState.SLEEPING

    # -- memory-server health (fault injection) --------------------------

    def fail_memory_server(self) -> None:
        """Mark this host's memory server as crashed."""
        if not self.memory_server_enabled:
            raise PowerStateError(
                f"host {self.host_id} has no memory server to fail"
            )
        self.memory_server_failed = True

    def repair_memory_server(self) -> None:
        """Repair the memory server (the host woke up; idempotent)."""
        self.memory_server_failed = False

    def __repr__(self) -> str:
        return (
            f"<Host {self.host_id} {self.role.value} {self.power_state.value} "
            f"vms={len(self._vms)} used={self._used_mib:.0f}/"
            f"{self.capacity_mib:.0f} MiB images={len(self._served_images)}>"
        )
