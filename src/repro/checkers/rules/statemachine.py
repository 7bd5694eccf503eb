"""State-machine rule (``SM102``).

The cluster model declares three state machines: VM activity
(:class:`repro.vm.state.VmActivity`), VM residency
(:class:`repro.vm.state.Residency`), and host power
(:class:`repro.cluster.power.PowerState`).  SM102 extracts attribute
assignments like ``host.power_state = PowerState.SLEEPING`` and checks
that the member exists and belongs to the attribute's own enum — a typo
no run-time check catches before the line runs.

The rest of each machine is guarded where it changes: the
``Host.power_state`` setter checks every power transition against the
declared table, and under ``REPRO_DEBUG_INDEXES`` the engine checks each
VM's activity and idle streak against its trace, and every host's
occupancy against a recount, at every interval.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.checkers.base import ModuleContext, Rule, register
from repro.checkers.findings import Finding
from repro.cluster.power import PowerState
from repro.vm.state import Residency, VmActivity

#: attribute name -> (enum class name, member names)
_STATE_ATTRS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "power_state": ("PowerState", frozenset(m.name for m in PowerState)),
    "activity": ("VmActivity", frozenset(m.name for m in VmActivity)),
    "residency": ("Residency", frozenset(m.name for m in Residency)),
}


def _enum_literal(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``PowerState.SLEEPING`` -> ("PowerState", "SLEEPING")."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("PowerState", "VmActivity", "Residency")
    ):
        return node.value.id, node.attr
    return None


@register
class UnknownStateMemberRule(Rule):
    """Typo catch: the assigned member must exist on the right enum."""

    rule_id = "SM102"
    summary = "state assignment uses an unknown or wrong-enum member"
    hint = "assign a declared member of the attribute's own state enum"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Assign, ast.AnnAssign):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None:
                continue
            literal = _enum_literal(value)
            if literal is None:
                continue
            enum_name, member = literal
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and target.attr in _STATE_ATTRS
                ):
                    continue
                expected_enum, members = _STATE_ATTRS[target.attr]
                if enum_name != expected_enum:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f".{target.attr} assigned a {enum_name} member "
                        f"(expected {expected_enum})",
                        self.hint,
                    )
                elif member not in members:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"{enum_name}.{member} is not a declared member",
                        self.hint,
                    )
