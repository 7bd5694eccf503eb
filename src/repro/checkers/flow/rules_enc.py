"""ENC202: incremental index containers stay behind their owners.

The simulator keeps O(1) incremental indexes in mutable containers: the
partial-VM and away-from-home sets, a host's VM map and served-image
set, and the planner's shadow capacity lists.  Whether they agree with
ground truth is checked at run time: ``REPRO_DEBUG_INDEXES`` recounts
every index at every interval, and the index battery in
``tests/test_perf_hotpath.py`` after every mutation.  A method that
returns one of these containers raw hands its callers write access
that no run exercises until someone writes through it, so that stays a
lint finding.

ENC202  a method of the owning class returning the raw index container
        (``return self._vms``) instead of a copy or a view.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator

from repro.checkers.base import ProjectRule, register
from repro.checkers.findings import Finding
from repro.checkers.flow.project import ProjectContext

#: Owner class (dotted) -> the attributes holding its index containers.
INDEX_CONTAINERS: Dict[str, FrozenSet[str]] = {
    "repro.farm.simulation.FarmSimulation": frozenset(
        {"_partial_vms", "_away_full"}
    ),
    "repro.cluster.host.Host": frozenset({"_vms", "_served_images"}),
    "repro.core.placement._ShadowCapacity": frozenset(
        {"free", "effective", "woken", "rooms"}
    ),
}


@register
class LeakedIndexHandle(ProjectRule):
    rule_id = "ENC202"
    summary = "methods must not return raw index containers"
    hint = (
        "return a copy (list(...)/set(...)/dict(...)) or an immutable "
        "view instead of the live index container"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for func_key, func in project.iter_functions():
            owner = project.owner_class(func_key)
            if owner is None:
                continue
            for cls in project.mro(owner):
                attrs = INDEX_CONTAINERS.get(cls)
                if attrs is None:
                    continue
                for line, desc in func.returns:
                    if desc[0] == "selfattr" and desc[1] in attrs:
                        yield self.finding(
                            project, func_key, line, 1,
                            f"{func.qual} returns the live index object "
                            f"self.{desc[1]}; callers could mutate it "
                            "behind its owner's back",
                        )
