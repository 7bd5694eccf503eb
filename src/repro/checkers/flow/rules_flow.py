"""FLOW101: RNG-stream discipline, proven project-wide.

FLOW101  every reachable draw attributes to a named stream (or a seeded
         ``random.Random`` constructed at a known site, or an external
         entry-point parameter no project code binds).

No run-time check can show where a draw's generator came from, so this
rule keeps the whole-program attribution of
:mod:`repro.checkers.flow.project`.
"""

from __future__ import annotations

from typing import Iterator

from repro.checkers.base import ProjectRule, register
from repro.checkers.findings import Finding
from repro.checkers.flow.project import ProjectContext

#: Module prefixes FLOW101 ignores (the analysis tooling itself).
_FLOW_EXEMPT = ("repro.checkers",)


def _in_flow_scope(module: str) -> bool:
    if not module.startswith("repro"):
        return True  # unknown module names stay in scope (conservative)
    return not any(
        module == p or module.startswith(p + ".") for p in _FLOW_EXEMPT
    )


@register
class UnattributedDraw(ProjectRule):
    rule_id = "FLOW101"
    summary = "every draw must attribute to exactly one named RNG stream"
    hint = (
        "thread an RngStreams stream (streams.get(\"name\")) or a "
        "random.Random seeded at construction to this receiver"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for draw in project.draws:
            if not _in_flow_scope(draw.func[0]):
                continue
            if draw.tokens or draw.external:
                continue
            yield self.finding(
                project, draw.func, draw.call.line, draw.call.col,
                f".{draw.method}() draw does not resolve to any RNG "
                "stream; randomness here is invisible to seed discipline",
            )
