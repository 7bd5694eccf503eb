"""FLOW1xx: RNG-stream discipline, proven project-wide.

FLOW101  every reachable draw attributes to a named stream (or a seeded
         ``random.Random`` constructed at a known site, or an external
         entry-point parameter no project code binds).
FLOW102  fault-injection draws are short-circuited by a zero-probability
         guard before the stream is touched.
FLOW103  no stochastic work hides under a tracer-enabled guard unless
         the ``else`` branch mirrors the same call.
"""

from __future__ import annotations

from typing import Iterator

from repro.checkers.base import ProjectRule, register
from repro.checkers.findings import Finding
from repro.checkers.flow.project import ProjectContext

#: Module prefixes FLOW1xx ignores (the analysis tooling itself).
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


@register
class UnguardedFaultDraw(ProjectRule):
    rule_id = "FLOW102"
    summary = "fault-injection draws must short-circuit on zero probability"
    hint = (
        "add `if profile.<x>_prob <= 0.0: return ...` before the first "
        "draw so disabled faults never advance the stream"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        first_draw = {}
        for draw in project.draws:
            module = draw.func[0]
            if not (module == "repro.faults"
                    or module.startswith("repro.faults.")):
                continue
            prev = first_draw.get(draw.func)
            if prev is None or draw.call.order < prev.call.order:
                first_draw[draw.func] = draw
        for func_key, draw in sorted(first_draw.items()):
            func = project.functions[func_key]
            if func.qual.endswith("__init__"):
                continue
            guarded = any(
                order < draw.call.order for order, _, _ in func.prob_guards
            )
            if not guarded:
                yield self.finding(
                    project, func_key, draw.call.line, draw.call.col,
                    f"{func.qual} draws at order {draw.call.order} with no "
                    "zero-probability short-circuit before it; a disabled "
                    "fault profile would still advance the stream",
                )


@register
class DrawUnderTraceGuard(ProjectRule):
    rule_id = "FLOW103"
    summary = "stochastic work under a tracer guard must be mirrored"
    hint = (
        "hoist the draw out of the `if tracer.enabled:` block, or call "
        "the same function in the else branch so both paths consume "
        "identical stream state"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for func_key, func in project.iter_functions():
            if not _in_flow_scope(func_key[0]):
                continue
            guards = project.tracer_guard_lines(func_key)
            if not guards:
                continue
            for call in func.calls:
                if call.tguard is None or call.tguard not in guards:
                    continue
                call_desc = (
                    "call", call.callee, call.args, call.kwargs, call.line
                )
                target = project._resolve_call_target(call_desc, func_key)
                if target is None or target[0] != "func":
                    continue
                if target[1] not in project.transitive_draws:
                    continue
                guard = guards[call.tguard]
                if guard.has_else and call.callee in guard.else_callees:
                    continue
                callee = project.functions.get(target[1])
                name = callee.qual if callee else str(target[1])
                yield self.finding(
                    project, func_key, call.line, call.col,
                    f"call to stochastic {name} sits under the tracer "
                    f"guard at line {call.tguard} with no mirrored call "
                    "in the else branch; traced and untraced runs would "
                    "consume different stream state",
                )

