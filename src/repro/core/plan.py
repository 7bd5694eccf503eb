"""Plan data model: what the manager tells agents to do (§4.1).

The manager ships agents lists of ``<vmid, migration type, destination>``
tuples; the classes below are the typed equivalent, grouped per vacated
host so the engine can serialize work and schedule the suspend that
follows the last departure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError


class MigrationMode(enum.Enum):
    """How a VM moves (§3.1, "How to migrate")."""

    FULL = "full"
    PARTIAL = "partial"


# Hot-path enum members, read once (DESIGN.md §12, rule 2).
_PARTIAL_MODE = MigrationMode.PARTIAL


class PlannedMigration:
    """One migration order.

    A hand-rolled ``__slots__`` value class rather than a frozen
    dataclass: the planner creates tens of thousands per simulated day,
    and the frozen-dataclass construction path (``object.__setattr__``
    per field plus a ``__post_init__`` frame) dominated its profile.
    Validation, equality, and repr match the dataclass it replaces.
    """

    __slots__ = (
        "vm_id", "source_id", "destination_id", "mode", "working_set_mib"
    )

    def __init__(
        self,
        vm_id: int,
        source_id: int,
        destination_id: int,
        mode: MigrationMode,
        working_set_mib: Optional[float] = None,
    ) -> None:
        if source_id == destination_id:
            raise ConfigError(
                f"VM {vm_id}: source and destination are both "
                f"{source_id}"
            )
        if mode is _PARTIAL_MODE:
            if working_set_mib is None or working_set_mib <= 0.0:
                raise ConfigError(
                    f"VM {vm_id}: partial migration needs a positive "
                    f"working set"
                )
        elif working_set_mib is not None:
            raise ConfigError(
                f"VM {vm_id}: full migration carries no working set"
            )
        self.vm_id = vm_id
        self.source_id = source_id
        self.destination_id = destination_id
        self.mode = mode
        #: Sampled idle working set for partial migrations, MiB.
        self.working_set_mib = working_set_mib

    def _astuple(self) -> tuple:
        return (
            self.vm_id, self.source_id, self.destination_id,
            self.mode, self.working_set_mib,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlannedMigration):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"PlannedMigration(vm_id={self.vm_id!r}, "
            f"source_id={self.source_id!r}, "
            f"destination_id={self.destination_id!r}, mode={self.mode!r}, "
            f"working_set_mib={self.working_set_mib!r})"
        )


@dataclass(frozen=True)
class HostVacatePlan:
    """Vacate one compute host: all of its VMs move out, then it sleeps."""

    host_id: int
    migrations: List[PlannedMigration]

    def __post_init__(self) -> None:
        if not self.migrations:
            raise ConfigError(f"vacate plan for host {self.host_id} is empty")
        for migration in self.migrations:
            if migration.source_id != self.host_id:
                raise ConfigError(
                    f"vacate plan for host {self.host_id} contains a "
                    f"migration sourced at {migration.source_id}"
                )

    @property
    def partial_count(self) -> int:
        return sum(
            1 for m in self.migrations if m.mode is MigrationMode.PARTIAL
        )

    @property
    def full_count(self) -> int:
        return len(self.migrations) - self.partial_count


@dataclass(frozen=True)
class ConsolidationPlan:
    """The outcome of one periodic planning pass."""

    vacations: List[HostVacatePlan] = field(default_factory=list)
    #: Lightly-loaded consolidation hosts emptied into their powered
    #: peers so they can sleep (the planner minimizes *all* powered
    #: hosts, §3.1).  Relocating a partial VM is cheap: its memory image
    #: stays at the home's memory server; only the descriptor and the
    #: resident working set move.
    compactions: List[HostVacatePlan] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.vacations and not self.compactions

    @property
    def migration_count(self) -> int:
        return sum(
            len(plan.migrations)
            for plan in list(self.vacations) + list(self.compactions)
        )


@dataclass(frozen=True)
class ExchangePlan:
    """One FulltoPartial exchange (§3.2): an idle full VM on a
    consolidation host returns to its origin home in full, then comes
    back to the *same* consolidation host as a partial VM."""

    vm_id: int
    consolidation_host_id: int
    origin_home_id: int
    working_set_mib: float

    def __post_init__(self) -> None:
        if self.consolidation_host_id == self.origin_home_id:
            raise ConfigError(
                f"VM {self.vm_id}: exchange endpoints are both "
                f"{self.origin_home_id}"
            )
        if self.working_set_mib <= 0.0:
            raise ConfigError(f"VM {self.vm_id}: working set must be positive")


class ActivationAction(enum.Enum):
    """What to do when a partial VM becomes active (§3.2)."""

    #: No action needed: the VM is already full where it runs.
    ALREADY_FULL = "already_full"
    #: Pull the remaining image and convert to full in place; the
    #: consolidation host becomes the new home.
    CONVERT_IN_PLACE = "convert_in_place"
    #: Full-migrate to another powered host with capacity (NewHome).
    MIGRATE_NEW_HOME = "migrate_new_home"
    #: Wake the VM's home host and return all of that home's VMs.
    WAKE_HOME_RETURN_ALL = "wake_home_return_all"


@dataclass(frozen=True)
class ActivationDecision:
    """The manager's response to one idle-to-active transition."""

    vm_id: int
    action: ActivationAction
    #: Destination host for MIGRATE_NEW_HOME; home host for
    #: WAKE_HOME_RETURN_ALL; the running host otherwise.
    target_host_id: int
