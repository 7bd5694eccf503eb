"""ENC2xx: incremental-index encapsulation, proven project-wide.

The simulator keeps O(1) incremental indexes (powered-host counters,
partial-VM sets, shadow capacity arrays) and the state that feeds them
(VM residency and activity, host power state) that must only drift
through their *sanctioned mutators* — the methods whose paired
bookkeeping keeps the index consistent with ground truth.  The
table below is the single source of truth: every entry names the class,
the attributes backing the index, the mutators allowed to write them,
and why that set is what it is.

ENC201  a write (assign, augment, subscript store, or in-place container
        mutation) to an index-backing attribute outside the sanctioned
        mutator set.
ENC202  a non-mutator method of the owning class returning the raw
        mutable index object (leaking write access).
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.checkers.base import ProjectRule, register
from repro.checkers.findings import Finding
from repro.checkers.flow.descriptors import MUTATING_METHODS, SELF, Desc
from repro.checkers.flow.project import FuncKey, ProjectContext


@dataclasses.dataclass(frozen=True)
class IndexSpec:
    """One incremental index: owner, backing attrs, sanctioned writers."""

    cls: str  # dotted owner class
    attrs: FrozenSet[str]
    #: function quals (within the owner's module) allowed to write.
    mutators: FrozenSet[str]
    reason: str
    #: the subset of ``attrs`` that are mutable containers; only these
    #: can leak write access when returned raw (ENC202).  Scalars
    #: (counters, enums, floats) are copied on return and stay exempt.
    leakable: FrozenSet[str] = frozenset()


INDEX_SPECS: Tuple[IndexSpec, ...] = (
    IndexSpec(
        cls="repro.farm.simulation.FarmSimulation",
        attrs=frozenset({"_partial_vms", "_away_full"}),
        leakable=frozenset({"_partial_vms", "_away_full"}),
        mutators=frozenset(
            {"FarmSimulation.__init__", "FarmSimulation._move"}
        ),
        reason=(
            "the partial-VM and away-from-home indexes mirror per-VM "
            "residency; _move, the one migration commit, is the single "
            "transition point that keeps them consistent with "
            "VirtualMachine state"
        ),
    ),
    IndexSpec(
        cls="repro.cluster.topology.Cluster",
        attrs=frozenset({"_powered_home", "_powered_consolidation"}),
        mutators=frozenset({"Cluster.__init__", "Cluster._on_power_edge"}),
        reason=(
            "powered-host counters update only on host power edges, via "
            "the listener the cluster registers at construction"
        ),
    ),
    IndexSpec(
        cls="repro.cluster.host.Host",
        attrs=frozenset(
            {"_vms", "_used_mib", "_full_count", "_partial_fraction"}
        ),
        leakable=frozenset({"_vms"}),
        mutators=frozenset(
            {
                "Host.__init__",
                "Host.attach",
                "Host.detach",
                "Host.convert_vm_full_in_place",
                "Host.grow_partial_vm",
            }
        ),
        reason=(
            "occupancy aggregates (used MiB, full count, partial "
            "fraction) move in lockstep with the VM map inside the four "
            "attach/detach/convert/grow transitions"
        ),
    ),
    IndexSpec(
        cls="repro.cluster.host.Host",
        attrs=frozenset({"_served_images"}),
        leakable=frozenset({"_served_images"}),
        mutators=frozenset(
            {
                "Host.__init__",
                "Host.add_served_image",
                "Host.remove_served_image",
            }
        ),
        reason=(
            "the served-image set backs the memory-server fan-out "
            "metric; the paired add/remove keep it consistent with "
            "partial-VM placement"
        ),
    ),
    IndexSpec(
        cls="repro.cluster.host.Host",
        attrs=frozenset({"_power_state"}),
        mutators=frozenset(
            {"Host.__init__", "Host.power_state", "Host.start_asleep"}
        ),
        reason=(
            "the power state moves only through the property setter, "
            "which checks every edge against the declared table and "
            "fires the cluster's powered-count listener; start_asleep "
            "is the one setup escape (the setter's def carries the "
            "property's qual)"
        ),
    ),
    IndexSpec(
        cls="repro.core.placement._ShadowCapacity",
        attrs=frozenset({"free", "effective", "woken", "rooms"}),
        leakable=frozenset({"free", "effective", "woken", "rooms"}),
        mutators=frozenset(
            {
                "_ShadowCapacity.__init__",
                "_ShadowCapacity.place",
                "_ShadowCapacity.unplace",
                "GreedyVacatePlanner._try_vacate",
                "GreedyVacatePlanner._plan_compaction",
            }
        ),
        reason=(
            "shadow arrays and the sorted spike rooms are the planner's "
            "speculative view; the point-estimate vacate loop updates "
            "the arrays inline for speed (a method call per scan, place "
            "and rollback makes greedy planning measurably slower) and "
            "compaction marks an emptied host unfit, so both are "
            "sanctioned alongside place/unplace"
        ),
    ),
    IndexSpec(
        cls="repro.vm.machine.VirtualMachine",
        attrs=frozenset(
            {"residency", "host_id", "home_id", "working_set_mib"}
        ),
        mutators=frozenset(
            {
                "VirtualMachine.__init__",
                "VirtualMachine.become_partial",
                "VirtualMachine.relocate_partial",
                "VirtualMachine.reintegrate",
                "VirtualMachine.become_full_at",
                "VirtualMachine.become_full_in_place",
                "VirtualMachine.full_migrate",
                "VirtualMachine.grow_working_set",
            }
        ),
        reason=(
            "residency/location fields drive every index above them; "
            "the named transition methods validate invariants before "
            "mutating, so direct writes bypass those checks"
        ),
    ),
    IndexSpec(
        cls="repro.vm.machine.VirtualMachine",
        attrs=frozenset({"activity"}),
        mutators=frozenset(
            {
                "VirtualMachine.__init__",
                "VirtualMachine.apply_activity_edge",
                "VirtualMachine.set_activity",
            }
        ),
        reason=(
            "activity flips must keep the idle-streak count in step, "
            "which only the trace-driven setters do"
        ),
    ),
)


def _spec_module(spec: IndexSpec) -> str:
    return spec.cls.rsplit(".", 1)[0]


def _receiver_targets(
    project: ProjectContext,
    spec: IndexSpec,
    recv: Desc,
    func_key: FuncKey,
) -> bool:
    """Does this receiver descriptor denote an instance of the spec class?

    Unknown receiver types count as targeting (conservative): attribute
    names like ``_powered_home`` are specific enough that a name match
    on an unresolvable receiver is almost certainly the real index.
    """
    if recv == SELF:
        owner = project.owner_class(func_key)
        if owner is None:
            return False
        return spec.cls in project.mro(owner)
    resolved = project.resolve_type(recv, func_key)
    if resolved is not None and resolved[0] == "optional":
        resolved = resolved[1]
    if resolved is not None and resolved[0] == "cls":
        return spec.cls in project.mro(resolved[1])
    return True  # unknown type: conservative


def _is_sanctioned(spec: IndexSpec, func_key: FuncKey, qual: str) -> bool:
    return func_key[0] == _spec_module(spec) and qual in spec.mutators


@register
class RogueIndexWrite(ProjectRule):
    rule_id = "ENC201"
    summary = "index-backing attributes change only via sanctioned mutators"
    hint = (
        "route the update through the owner's sanctioned mutator (see "
        "INDEX_SPECS in repro.checkers.flow.rules_enc), or add this "
        "function to the table with a reason"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for func_key, func in project.iter_functions():
            for spec in INDEX_SPECS:
                if _is_sanctioned(spec, func_key, func.qual):
                    continue
                for write in func.attr_writes:
                    if write.attr not in spec.attrs:
                        continue
                    if not _receiver_targets(
                        project, spec, write.recv, func_key
                    ):
                        continue
                    yield self.finding(
                        project, func_key, write.line, write.col,
                        f"{func.qual} writes index attribute "
                        f"{spec.cls.rsplit('.', 1)[1]}.{write.attr} "
                        f"({write.kind}) outside its sanctioned mutators",
                    )
                for call in func.calls:
                    attr_recv = self._mutating_index_call(spec, call.callee)
                    if attr_recv is None:
                        continue
                    attr, recv = attr_recv
                    if not _receiver_targets(project, spec, recv, func_key):
                        continue
                    yield self.finding(
                        project, func_key, call.line, call.col,
                        f"{func.qual} mutates index attribute "
                        f"{spec.cls.rsplit('.', 1)[1]}.{attr} in place "
                        f"(.{call.callee[2]}()) outside its sanctioned "
                        "mutators",
                    )

    @staticmethod
    def _mutating_index_call(
        spec: IndexSpec, callee: Desc
    ) -> Optional[Tuple[str, Desc]]:
        """``X.attr.add(...)``-style in-place mutation of an index attr."""
        if (
            not isinstance(callee, tuple)
            or len(callee) != 3
            or callee[0] != "getattr"
            or callee[2] not in MUTATING_METHODS
        ):
            return None
        holder = callee[1]
        if not isinstance(holder, tuple) or not holder:
            return None
        if holder[0] == "selfattr" and holder[1] in spec.attrs:
            return holder[1], SELF
        if (
            holder[0] == "getattr"
            and len(holder) == 3
            and holder[2] in spec.attrs
        ):
            return holder[2], holder[1]
        return None


@register
class LeakedIndexHandle(ProjectRule):
    rule_id = "ENC202"
    summary = "non-mutator methods must not return raw index objects"
    hint = (
        "return a copy (list(...)/set(...)/dict(...)) or an immutable "
        "view instead of the live index container"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for func_key, func in project.iter_functions():
            if func.cls is None:
                continue
            owner = project.owner_class(func_key)
            if owner is None:
                continue
            for spec in INDEX_SPECS:
                if spec.cls not in project.mro(owner):
                    continue
                if _is_sanctioned(spec, func_key, func.qual):
                    continue
                for line, desc in func.returns:
                    if (
                        isinstance(desc, tuple)
                        and len(desc) == 2
                        and desc[0] == "selfattr"
                        and desc[1] in spec.leakable
                    ):
                        yield self.finding(
                            project, func_key, line, 1,
                            f"{func.qual} returns the live index object "
                            f"self.{desc[1]}; callers could mutate it "
                            "behind the sanctioned mutators' back",
                        )
