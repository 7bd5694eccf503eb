"""TRC301: trace purity — observability may watch, never steer.

The tracer layer exists so a traced run and an untraced run are
byte-identical, which ``tests/test_obs_differential.py`` checks over
every policy.  Every emission returns ``None``, so a run can only be
steered by one whose result feeds a value, and no run shows that until
an emission returns something: it stays a lint finding.

TRC301  a tracer emission call whose result feeds an expression or
        assignment (emission must be a statement or a ``with`` item).
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.checkers.base import ProjectRule, register
from repro.checkers.findings import Finding
from repro.checkers.flow.project import ProjectContext
from repro.checkers.rules.determinism import SIMULATION_PACKAGES

#: Packages whose code must treat the tracer as write-only.  The
#: observability layer itself and the benchmarking harness are exempt —
#: reading recorded state is their job.
TRC_PACKAGES: Tuple[str, ...] = tuple(
    p for p in SIMULATION_PACKAGES if p not in ("repro.obs", "repro.perfbench")
)


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
