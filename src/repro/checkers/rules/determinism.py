"""Determinism rules (``DET1xx``).

Everything stochastic in the simulation packages must flow through
:class:`repro.simulator.randomness.RngStreams` (or an explicitly seeded
``random.Random``): module-level ``random.*`` calls share one hidden
global stream, wall-clock reads make runs time-dependent, and iterating
an unsorted ``set`` makes results depend on hash seeding.  These rules
apply only inside the result-producing packages listed in
:data:`SIMULATION_PACKAGES`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.checkers.base import ModuleContext, Rule, register
from repro.checkers.findings import Finding

#: Packages whose outputs feed energy figures; determinism is load-bearing.
SIMULATION_PACKAGES = (
    "repro.simulator",
    "repro.farm",
    "repro.core",
    "repro.policies",
    "repro.traces",
    "repro.vm",
    "repro.migration",
    "repro.pagesim",
    "repro.faults",
    "repro.obs",
    "repro.perfbench",
    "repro.equiv",
)

#: Attributes of the ``random`` module DET101 leaves to other rules:
#: ``Random`` is fine when seeded and ``SystemRandom`` is DET102's
#: specific complaint — flagging it here too would double-report.
_ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})

#: Wall-clock call patterns, as dotted names rooted at the module.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _DeterminismRule(Rule):
    """Shared scope gate for the DET pack."""

    def in_scope(self, ctx: ModuleContext) -> bool:
        if ctx.module_name == "repro.simulator.randomness":
            # The stream factory itself legitimately touches ``random``.
            return False
        return ctx.in_packages(SIMULATION_PACKAGES)


@register
class ModuleLevelRandomRule(_DeterminismRule):
    """Forbid the hidden global stream: ``random.random()`` and friends."""

    rule_id = "DET101"
    summary = "module-level random.* call in a simulation package"
    hint = "draw from RngStreams.get(name) or a seeded random.Random instead"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        for node in ctx.nodes(ast.Call):
            dotted = dotted_name(node.func)
            if (
                dotted is not None
                and dotted.startswith("random.")
                and dotted.count(".") == 1
                and dotted.split(".")[1] not in _ALLOWED_RANDOM_ATTRS
            ):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"call to {dotted}() uses the global random stream",
                    self.hint,
                )
        for node in ctx.nodes(ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                for alias in node.names:
                    if alias.name not in _ALLOWED_RANDOM_ATTRS:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"'from random import {alias.name}' exposes "
                            "the global random stream",
                            self.hint,
                        )


@register
class UnseededRandomRule(_DeterminismRule):
    """``random.Random()`` with no seed draws from OS entropy."""

    rule_id = "DET102"
    summary = "unseeded random.Random() in a simulation package"
    hint = "pass an explicit seed, e.g. random.Random(seed) or RngStreams"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        for node in ctx.nodes(ast.Call):
            dotted = dotted_name(node.func)
            if dotted in ("random.Random", "random.SystemRandom", "SystemRandom"):
                if dotted.endswith("SystemRandom"):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        "SystemRandom is nondeterministic by design",
                        self.hint,
                    )
                elif not node.args and not node.keywords:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        "random.Random() without a seed is nondeterministic",
                        self.hint,
                    )


@register
class WallClockRule(_DeterminismRule):
    """Simulated time comes from the event loop, never the host clock."""

    rule_id = "DET103"
    summary = "wall-clock read in a simulation package"
    hint = "use the simulator's virtual clock (Simulator.now) instead"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        for node in ctx.nodes(ast.Call):
            dotted = dotted_name(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"{dotted}() reads the wall clock",
                    self.hint,
                )


def _is_set_expr(node: ast.expr, known_sets: Set[str]) -> bool:
    """Syntactically a set: literal, comprehension, set()/frozenset()
    call, a name or ``self.attr`` bound to one, or a set-algebra BinOp
    of such."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        return dotted in ("set", "frozenset")
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = dotted_name(node)
        return dotted in known_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, known_sets) or _is_set_expr(
            node.right, known_sets
        )
    return False


def _is_set_annotation(node: ast.expr) -> bool:
    """``Set[...]`` / ``FrozenSet[...]`` / ``set`` annotations."""
    if isinstance(node, ast.Subscript):
        node = node.value
    dotted = dotted_name(node)
    return dotted in ("set", "frozenset", "Set", "FrozenSet",
                      "typing.Set", "typing.FrozenSet")


@register
class SetIterationRule(_DeterminismRule):
    """Iteration order over a set depends on hashes; sort first."""

    rule_id = "DET104"
    summary = "iteration over an unsorted set in a simulation package"
    hint = "iterate sorted(the_set) for a deterministic order"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        # Names (including ``self.attr``) bound to set expressions or
        # Set annotations anywhere in the module; a deliberately simple,
        # scope-free approximation.
        known_sets: Set[str] = set()
        for node in ctx.nodes(ast.Assign):
            if _is_set_expr(node.value, known_sets=set()):
                for target in node.targets:
                    dotted = dotted_name(target)
                    if dotted is not None:
                        known_sets.add(dotted)
        for node in ctx.nodes(ast.AnnAssign):
            bound_to_set = node.value is not None and _is_set_expr(
                node.value, known_sets=set()
            )
            if bound_to_set or _is_set_annotation(node.annotation):
                dotted = dotted_name(node.target)
                if dotted is not None:
                    known_sets.add(dotted)
        for node in ctx.nodes(ast.arg):
            if node.annotation is not None and _is_set_annotation(
                node.annotation
            ):
                known_sets.add(node.arg)
        iters = [node.iter for node in ctx.nodes(ast.For)]
        for node in ctx.nodes(
            ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp
        ):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it, known_sets):
                yield ctx.finding(
                    it,
                    self.rule_id,
                    "iterating a set yields a hash-dependent order",
                    self.hint,
                )
