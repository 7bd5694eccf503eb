"""TRC3xx: trace purity — observability may watch, never steer.

The tracer layer exists so a traced run and an untraced run are
byte-identical.  That holds only if simulation code treats the tracer as
a sink: emission calls return nothing the simulation consumes, no draw
happens under a tracing guard (FLOW103's job), and tracer-side state
(recorded events, span clocks) never flows back into simulation
variables.

TRC301  a tracer emission call whose result feeds an expression or
        assignment (emission must be a statement or a ``with`` item).
TRC303  simulation code reading tracer state (``.events``,
        ``.open_span_count``, ``now_s()``).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.checkers.base import ProjectRule, register
from repro.checkers.findings import Finding
from repro.checkers.flow.descriptors import Desc
from repro.checkers.flow.project import ProjectContext
from repro.checkers.rules.determinism import SIMULATION_PACKAGES

#: Packages whose code must treat the tracer as write-only.  The
#: observability layer itself and the benchmarking harness are exempt —
#: reading recorded state is their job.
TRC_PACKAGES: Tuple[str, ...] = tuple(
    p for p in SIMULATION_PACKAGES if p not in ("repro.obs", "repro.perfbench")
)

#: Attributes that expose tracer-side state.
_STATE_ATTRS = frozenset({"events", "open_span_count"})
_STATE_METHODS = frozenset({"now_s"})


def _in_trc_scope(module: str) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in TRC_PACKAGES
    )


@register
class EmissionFeedsValue(ProjectRule):
    rule_id = "TRC301"
    summary = "tracer emission results must not feed simulation values"
    hint = (
        "emit as a bare statement (or `with tracer.span(...)`); if you "
        "need the quantity, compute it first and pass it to the tracer"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for site in project.tracer_calls:
            if not _in_trc_scope(site.func[0]):
                continue
            if site.call.role != "value":
                continue
            yield self.finding(
                project, site.func, site.call.line, site.call.col,
                f".{site.method}() result flows into an expression; "
                "emission must be observation-only",
            )


@register
class TracerStateRead(ProjectRule):
    rule_id = "TRC303"
    summary = "simulation code must not read tracer-side state"
    hint = (
        "tracer events are for exporters and tests; derive "
        "simulation decisions from simulation state instead"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for func_key, func in project.iter_functions():
            if not _in_trc_scope(func_key[0]):
                continue
            # Method-style reads: tracer.now_s().
            for call in func.calls:
                callee = call.callee
                if (
                    isinstance(callee, tuple)
                    and len(callee) == 3
                    and callee[0] == "getattr"
                    and callee[2] in _STATE_METHODS
                    and project.is_tracerish(callee[1], func_key)
                ):
                    yield self.finding(
                        project, func_key, call.line, call.col,
                        f".{callee[2]}() reads the tracer's clock from "
                        "simulation code",
                    )
            # Attribute-style reads, wherever a descriptor with a line
            # anchor carries one: call arguments, returns, attr writes.
            anchored: List[Tuple[int, int, Desc]] = []
            for call in func.calls:
                for arg in call.args:
                    anchored.append((call.line, call.col, arg))
                for _, arg in call.kwargs:
                    anchored.append((call.line, call.col, arg))
            for line, desc in func.returns:
                anchored.append((line, 1, desc))
            for write in func.attr_writes:
                if write.value is not None:
                    anchored.append((write.line, write.col, write.value))
            seen = set()
            for line, col, desc in anchored:
                attr = self._state_read(project, desc, func_key)
                if attr is None or (line, attr) in seen:
                    continue
                seen.add((line, attr))
                yield self.finding(
                    project, func_key, line, col,
                    f"tracer state .{attr} flows into simulation code",
                )

    def _state_read(
        self, project: ProjectContext, desc: Desc, func_key, depth: int = 0
    ):
        """First tracer-state attribute read nested in ``desc``, if any."""
        if depth > 8 or not isinstance(desc, tuple) or not desc:
            return None
        if (
            desc[0] == "getattr"
            and len(desc) == 3
            and desc[2] in _STATE_ATTRS
            and project.is_tracerish(desc[1], func_key)
        ):
            return desc[2]
        for part in desc:
            if isinstance(part, tuple):
                found = self._state_read(project, part, func_key, depth + 1)
                if found is not None:
                    return found
            elif isinstance(part, (list,)):
                for item in part:
                    found = self._state_read(
                        project, item, func_key, depth + 1
                    )
                    if found is not None:
                        return found
        return None
