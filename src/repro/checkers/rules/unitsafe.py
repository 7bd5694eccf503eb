"""Unit-suffix safety rules (``UNIT1xx``).

:mod:`repro.units` fixes one convention — seconds, MiB, MiB/s, watts,
joules — and the codebase encodes it in identifier suffixes (``_s``,
``_mib``, ``_mib_per_s``, ``_w``, ``_j``).  These rules infer a unit
*family* from the suffix of every name they can see and flag the three
operations that silently cross families: arithmetic/comparison, plain
assignment, and call arguments.  Mixing is sanctioned only by going
through a :mod:`repro.units` conversion helper, whose return family the
inferencer knows.

The inference is deliberately conservative: a violation is reported only
when *both* sides resolve to a definite, different family.  Numeric
literals are dimensionless and never conflict; multiplying or dividing
performs the obvious dimensional algebra (``mib / mib_per_s -> s``,
``w * s -> j``); anything else is unknown and exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.checkers.base import ModuleContext, Rule, register
from repro.checkers.findings import Finding
from repro.checkers.rules.determinism import dotted_name

# --- suffix -> family ------------------------------------------------------

#: Longest-match-first suffix table.  ``_seconds`` is the spelled-out
#: constant convention (``TRACE_INTERVAL_SECONDS``).
_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_mib_per_s", "MiB/s"),
    ("_seconds", "s"),
    ("_mib", "MiB"),
    ("_s", "s"),
    ("_w", "W"),
    ("_j", "J"),
)

#: units.py conversion helpers: name -> (param families, return family).
#: ``None`` entries are families outside the convention (pages, GiB, Wh)
#: that the suffix table cannot name; they act as unit casts.
_CONVERSIONS: Dict[str, Tuple[List[Optional[str]], Optional[str]]] = {
    "transfer_seconds": (["MiB", "MiB/s"], "s"),
    "mib_to_pages": (["MiB"], None),
    "pages_to_mib": ([None], "MiB"),
    "mib_to_gib": (["MiB"], None),
    "gib_to_mib": ([None], "MiB"),
    "joules_to_wh": (["J"], None),
    "wh_to_joules": ([None], "J"),
}


def family_of_name(identifier: str) -> Optional[str]:
    """Unit family encoded in an identifier's suffix, or ``None``."""
    lowered = identifier.lower()
    for suffix, family in _SUFFIXES:
        if lowered.endswith(suffix):
            return family
    return None


class _Inference:
    """Expression -> unit family, with simple dimensional algebra."""

    #: ``a * b`` products the convention can name.
    _PRODUCTS = {
        frozenset({"MiB/s", "s"}): "MiB",
        frozenset({"W", "s"}): "J",
    }
    #: ``a / b`` quotients: (numerator, denominator) -> family.
    _QUOTIENTS = {
        ("MiB", "MiB/s"): "s",
        ("MiB", "s"): "MiB/s",
        ("J", "s"): "W",
        ("J", "W"): "s",
    }

    def __init__(self, local_signatures: Dict[str, List[Optional[str]]]):
        self._local_signatures = local_signatures

    def family(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return family_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return family_of_name(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self.family(node.operand)
        if isinstance(node, ast.BinOp):
            return self._binop_family(node)
        if isinstance(node, ast.Call):
            return self._call_family(node)
        if isinstance(node, ast.IfExp):
            true_family = self.family(node.body)
            false_family = self.family(node.orelse)
            if true_family == false_family:
                return true_family
            return None
        return None

    def _binop_family(self, node: ast.BinOp) -> Optional[str]:
        left = self.family(node.left)
        right = self.family(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                return left if left == right else None
            return left if left is not None else right
        if isinstance(node.op, ast.Mult):
            if left is not None and right is not None:
                return self._PRODUCTS.get(frozenset({left, right}))
            # dimensionless literal scaling preserves the family
            if self._is_dimensionless(node.left):
                return right
            if self._is_dimensionless(node.right):
                return left
            return None
        if isinstance(node.op, ast.Div):
            if left is not None and right is not None:
                if left == right:
                    return None  # ratio: dimensionless
                return self._QUOTIENTS.get((left, right))
            if right is not None:
                return None
            if left is not None and self._is_dimensionless(node.right):
                return left
            return None
        return None

    def _call_family(self, node: ast.Call) -> Optional[str]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        simple = dotted.rsplit(".", 1)[-1]
        if simple in _CONVERSIONS:
            return _CONVERSIONS[simple][1]
        if simple in ("min", "max", "abs", "round", "float", "sum"):
            families = {
                f
                for f in (self.family(arg) for arg in node.args)
                if f is not None
            }
            if len(families) == 1:
                return families.pop()
        return None

    @staticmethod
    def _is_dimensionless(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)
        )


def _collect_signatures(tree: ast.Module) -> Dict[str, List[Optional[str]]]:
    """Param families of functions defined at module top level."""
    signatures: Dict[str, List[Optional[str]]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in node.args.args]
            signatures[node.name] = [family_of_name(p) for p in params]
    return signatures


class _UnitRule(Rule):
    """Shared inference setup for the UNIT pack."""

    def _inference(self, ctx: ModuleContext) -> _Inference:
        return _Inference(_collect_signatures(ctx.tree))

    def in_scope(self, ctx: ModuleContext) -> bool:
        # units.py itself defines the conversions; everything else is fair
        # game, tests included implicitly via module_name=None.
        return ctx.module_name != "repro.units"


@register
class MixedArithmeticRule(_UnitRule):
    """``x_s + y_mib`` and ``x_s < y_mib`` are dimensionally nonsense."""

    rule_id = "UNIT101"
    summary = "arithmetic or comparison across unit families"
    hint = "convert through a repro.units helper before combining"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        infer = self._inference(ctx)
        for node in ctx.nodes(ast.BinOp):
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left = infer.family(node.left)
            right = infer.family(node.right)
            if left is not None and right is not None and left != right:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"adds/subtracts {left} and {right}",
                    self.hint,
                )
        for node in ctx.nodes(ast.Compare):
            operands = [node.left] + list(node.comparators)
            families = [infer.family(op) for op in operands]
            for (a, fam_a), (b, fam_b) in zip(
                zip(operands, families), zip(operands[1:], families[1:])
            ):
                if fam_a is not None and fam_b is not None and fam_a != fam_b:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"compares {fam_a} with {fam_b}",
                        self.hint,
                    )


@register
class MixedAssignmentRule(_UnitRule):
    """Assigning seconds into a ``_mib`` name corrupts downstream math."""

    rule_id = "UNIT102"
    summary = "assignment across unit families"
    hint = "rename the target or convert through a repro.units helper"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        infer = self._inference(ctx)
        for node in ctx.nodes(ast.Assign, ast.AnnAssign, ast.AugAssign):
            pairs = []  # (target, value)
            if isinstance(node, ast.Assign):
                pairs = [(t, node.value) for t in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(node.target, node.value)]
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                pairs = [(node.target, node.value)]
            for target, value in pairs:
                if not isinstance(target, (ast.Name, ast.Attribute)):
                    continue
                target_family = infer.family(target)
                value_family = infer.family(value)
                if (
                    target_family is not None
                    and value_family is not None
                    and target_family != value_family
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"assigns {value_family} to a {target_family} name",
                        self.hint,
                    )


@register
class MixedCallArgumentRule(_UnitRule):
    """Passing ``x_s`` for a ``size_mib`` parameter."""

    rule_id = "UNIT103"
    summary = "call argument crosses unit families"
    hint = "convert the argument through a repro.units helper"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        infer = self._inference(ctx)
        signatures = dict(_collect_signatures(ctx.tree))
        for name, (param_families, _ret) in _CONVERSIONS.items():
            signatures.setdefault(name, param_families)
        for node in ctx.nodes(ast.Call):
            # Keyword arguments carry the parameter name directly.
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                param_family = family_of_name(kw.arg)
                value_family = infer.family(kw.value)
                if (
                    param_family is not None
                    and value_family is not None
                    and param_family != value_family
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"passes {value_family} for parameter "
                        f"{kw.arg!r} ({param_family})",
                        self.hint,
                    )
            # Positional arguments: only for signatures we know.
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            simple = dotted.rsplit(".", 1)[-1]
            if simple not in signatures or dotted.count(".") > 1:
                continue
            for index, arg in enumerate(node.args):
                if index >= len(signatures[simple]):
                    break
                param_family = signatures[simple][index]
                value_family = infer.family(arg)
                if (
                    param_family is not None
                    and value_family is not None
                    and param_family != value_family
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"positional arg {index + 1} of {simple}() is "
                        f"{value_family}, expected {param_family}",
                        self.hint,
                    )
