"""The VM object used by the cluster simulation.

A :class:`VirtualMachine` tracks three orthogonal pieces of state:

* **activity** — active or idle, driven by the user trace;
* **residency** — full (complete image where it runs) or partial (only
  the idle working set resident, faulting from the home's memory server);
* **placement** — ``host_id`` (where it runs), ``home_id`` (which host
  owns its full memory image), and ``origin_home_id`` (the compute host
  it was created on, used by the FulltoPartial return path).

Invariants (enforced on every mutation):

* a FULL VM runs on its home (``host_id == home_id``);
* a PARTIAL VM runs away from its home and its working set never exceeds
  its allocation.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MigrationError
from repro.units import DEFAULT_VM_MEMORY_MIB
from repro.vm.state import Residency, VmActivity

# Hot-path enum members, read once (DESIGN.md §12, rule 2); state
# assignments keep the literal member, which SM102 checks.
_FULL_RESIDENCY = Residency.FULL
_PARTIAL_RESIDENCY = Residency.PARTIAL
_ACTIVE = VmActivity.ACTIVE


class IntervalClock:
    """A shared trace-interval counter for lazy idle-streak tracking.

    One clock is shared by every VM in a simulation; the interval driver
    bumps ``index`` once per trace interval instead of touching every
    VM.  ``index`` starts at ``-1`` ("before the first interval") so a
    VM anchored at creation reads an idle streak of 0 until the first
    interval is processed.
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index = -1

    def __repr__(self) -> str:
        return f"<IntervalClock index={self.index}>"


class VirtualMachine:
    """One virtual machine in the simulated cluster."""

    __slots__ = (
        "vm_id",
        "memory_mib",
        "origin_home_id",
        "home_id",
        "host_id",
        "residency",
        "activity",
        "working_set_mib",
        "_idle_base",
        "_idle_anchor",
        "_interval_clock",
    )

    def __init__(
        self,
        vm_id: int,
        origin_home_id: int,
        memory_mib: float = DEFAULT_VM_MEMORY_MIB,
    ) -> None:
        if memory_mib <= 0.0:
            raise MigrationError(f"VM memory must be positive, got {memory_mib}")
        self.vm_id = vm_id
        self.memory_mib = memory_mib
        self.origin_home_id = origin_home_id
        self.home_id = origin_home_id
        self.host_id = origin_home_id
        self.residency = Residency.FULL
        self.activity = VmActivity.IDLE
        self.working_set_mib: Optional[float] = None
        self._idle_base = 0
        self._idle_anchor: Optional[int] = None
        self._interval_clock: Optional[IntervalClock] = None

    # -- queries --------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self.activity is _ACTIVE

    @property
    def is_partial(self) -> bool:
        return self.residency is _PARTIAL_RESIDENCY

    @property
    def resident_mib(self) -> float:
        """Memory the VM occupies on the host where it runs."""
        if self.residency is _FULL_RESIDENCY:
            return self.memory_mib
        if self.working_set_mib is None:
            raise MigrationError(f"partial VM {self.vm_id} has no working set")
        return self.working_set_mib

    @property
    def resident_fraction(self) -> float:
        """Fraction of the allocation resident where the VM runs."""
        return self.resident_mib / self.memory_mib

    # -- activity ----------------------------------------------------------

    @property
    def idle_intervals(self) -> int:
        """Consecutive trace intervals this VM has been idle (scheduler
        hysteresis input).

        Clock-anchored VMs (see :meth:`track_idle_with`) derive the
        streak from the shared interval clock, so a quiet VM's streak
        grows without any per-interval work; otherwise the eagerly
        maintained count is returned.
        """
        anchor = self._idle_anchor
        if anchor is None:
            return self._idle_base
        return self._interval_clock.index - anchor + 1

    @idle_intervals.setter
    def idle_intervals(self, value: int) -> None:
        self._idle_base = value
        self._idle_anchor = None

    def track_idle_with(self, clock: IntervalClock) -> None:
        """Bind this (idle) VM's streak to a shared interval clock.

        The streak becomes 1 at the clock's next interval and grows with
        it — identical to calling ``set_activity(IDLE)`` once per
        interval, without the per-interval call.
        """
        if self.activity is not VmActivity.IDLE:
            raise MigrationError(
                f"VM {self.vm_id} must be idle to anchor its idle streak"
            )
        self._interval_clock = clock
        self._idle_anchor = clock.index + 1

    def apply_activity_edge(self, active: bool) -> None:
        """Apply one compiled activity flip at the clock's current interval.

        Requires a bound clock (:meth:`track_idle_with`).  An idle flip
        anchors the streak at the current interval (streak 1 now, +1 per
        subsequent interval); an active flip zeroes it — byte-equivalent
        to the eager :meth:`set_activity` sequence the flip replaces.
        """
        if active:
            self.activity = VmActivity.ACTIVE
            self._idle_anchor = None
            self._idle_base = 0
        else:
            self.activity = VmActivity.IDLE
            self._idle_anchor = self._interval_clock.index

    def set_activity(self, activity: VmActivity) -> None:
        """Update activity from the trace; maintains the idle-streak count."""
        if activity is VmActivity.IDLE:
            if self.activity is VmActivity.IDLE:
                self.idle_intervals = self.idle_intervals + 1
            else:
                self.idle_intervals = 1
        else:
            self.idle_intervals = 0
        self.activity = activity

    # -- residency / placement transitions ---------------------------------

    def become_partial(self, destination_id: int, working_set_mib: float) -> None:
        """Partial-migrate: run on ``destination_id`` with only the working set.

        The full image stays behind with the current home, whose memory
        server will service page faults.
        """
        if self.residency is _PARTIAL_RESIDENCY:
            raise MigrationError(f"VM {self.vm_id} is already partial")
        if destination_id == self.home_id:
            raise MigrationError(
                f"VM {self.vm_id}: partial destination equals home "
                f"{self.home_id}"
            )
        if not 0.0 < working_set_mib <= self.memory_mib:
            raise MigrationError(
                f"VM {self.vm_id}: working set {working_set_mib} MiB outside "
                f"(0, {self.memory_mib}]"
            )
        self.residency = Residency.PARTIAL
        self.host_id = destination_id
        self.working_set_mib = working_set_mib

    def relocate_partial(self, destination_id: int) -> None:
        """Move a partial VM to another consolidation host (same home)."""
        if self.residency is not _PARTIAL_RESIDENCY:
            raise MigrationError(f"VM {self.vm_id} is not partial")
        if destination_id == self.home_id:
            raise MigrationError(
                f"VM {self.vm_id}: use reintegrate() to return home"
            )
        self.host_id = destination_id

    def reintegrate(self) -> None:
        """Return a partial VM to its home; dirty state merges into the
        full image and the VM becomes full again."""
        if self.residency is not _PARTIAL_RESIDENCY:
            raise MigrationError(f"VM {self.vm_id} is not partial")
        self.residency = Residency.FULL
        self.host_id = self.home_id
        self.working_set_mib = None

    def become_full_in_place(self) -> None:
        """Convert a partial VM to full where it runs (Default policy when
        the consolidation host has capacity, §3.2): the remaining image is
        pulled from the old home, which relinquishes ownership."""
        self.become_full_at(self.host_id)

    def become_full_at(self, destination_id: int) -> None:
        """Convert a partial VM to a full VM on ``destination_id`` (the
        NewHome policy, §3.2): the working set moves from the current
        host and the remainder streams from the old home's memory
        server; the destination becomes the new home."""
        if self.residency is not _PARTIAL_RESIDENCY:
            raise MigrationError(f"VM {self.vm_id} is not partial")
        self.residency = Residency.FULL
        self.host_id = destination_id
        self.home_id = destination_id
        self.working_set_mib = None

    def full_migrate(self, destination_id: int) -> None:
        """Live-migrate the full VM; the destination becomes the new home."""
        if self.residency is not _FULL_RESIDENCY:
            raise MigrationError(
                f"VM {self.vm_id} must be full to live-migrate"
            )
        self.host_id = destination_id
        self.home_id = destination_id

    def grow_working_set(self, delta_mib: float) -> None:
        """Grow a partial VM's resident working set (demand faults), capped
        at the full allocation."""
        if self.residency is not _PARTIAL_RESIDENCY:
            raise MigrationError(f"VM {self.vm_id} is not partial")
        if delta_mib < 0.0:
            raise MigrationError("working-set growth must be non-negative")
        assert self.working_set_mib is not None
        self.working_set_mib = min(
            self.working_set_mib + delta_mib, self.memory_mib
        )

    def __repr__(self) -> str:
        return (
            f"<VM {self.vm_id} {self.activity.value}/{self.residency.value} "
            f"host={self.host_id} home={self.home_id} "
            f"resident={self.resident_mib:.0f} MiB>"
        )
