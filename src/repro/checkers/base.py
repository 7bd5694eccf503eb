"""Rule base classes, per-file module context, and the one rule registry.

A rule is a small object with an id, a one-line summary, a fix hint and
a ``check`` generator yielding :class:`~repro.checkers.findings.Finding`
objects.  It comes in two kinds: a :class:`Rule` checks one parsed
module (:class:`ModuleContext`), and a :class:`ProjectRule` checks the
linked whole-program view
(:class:`~repro.checkers.flow.project.ProjectContext`).  Both kinds
register themselves with :func:`register` at import time, and the
driver runs every registered rule of both kinds in one pass.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Type,
)

from repro.checkers.findings import Finding

if TYPE_CHECKING:
    from repro.checkers.flow.project import FuncKey, ProjectContext


@dataclasses.dataclass
class ModuleContext:
    """Everything a rule may inspect about one source file.

    ``module_name`` is the dotted import path (``repro.farm.simulation``)
    when it can be derived from the file path, else ``None`` (synthetic
    sources in tests).  Rules that scope themselves to specific packages
    treat ``None`` as in-scope so test fixtures exercise them directly.

    Rules read the tree's nodes through :meth:`nodes`, so the tree is
    walked once per file however many rules run.
    """

    path: str
    tree: ast.Module
    module_name: Optional[str] = None

    @functools.cached_property
    def _by_type(self) -> Dict[Type[ast.AST], List[ast.AST]]:
        index: Dict[Type[ast.AST], List[ast.AST]] = {}
        for node in ast.walk(self.tree):
            index.setdefault(type(node), []).append(node)
        return index

    def nodes(self, *node_types: Type[ast.AST]) -> Iterator[Any]:
        """Every node of the given exact classes, one class after another.

        Classes match exactly (``ast.Call``, never ``ast.expr``); within
        a class nodes come in ``ast.walk`` order.
        """
        for node_type in node_types:
            yield from self._by_type.get(node_type, ())

    def finding(
        self,
        node: ast.AST,
        rule_id: str,
        message: str,
        hint: str = "",
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            hint=hint,
        )

    def in_packages(self, prefixes: Iterable[str]) -> bool:
        """Whether this module lives under one of the dotted prefixes.

        Unknown module names (synthetic sources) count as in-scope.
        """
        if self.module_name is None:
            return True
        return any(
            self.module_name == p or self.module_name.startswith(p + ".")
            for p in prefixes
        )


class Rule:
    """Base class for one lint rule that checks a single module.

    Subclasses set :attr:`rule_id`, :attr:`summary`, and :attr:`hint`,
    and implement :meth:`check`.
    """

    rule_id: str = ""
    summary: str = ""
    hint: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.rule_id}: {self.summary}>"


class ProjectRule(Rule):
    """Base class for one rule that checks the linked whole program.

    :meth:`check` receives the
    :class:`~repro.checkers.flow.project.ProjectContext` built from every
    module of the pass instead of a single :class:`ModuleContext`.
    """

    def check(  # type: ignore[override]
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        project: ProjectContext,
        func_key: FuncKey,
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build this rule's :class:`Finding` inside ``func_key``'s file."""
        return Finding(
            path=project.path_of(func_key),
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
            hint=self.hint,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_cls`` to the global registry."""
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ValueError(f"rule {rule_cls.__name__} has no rule_id")
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class of both kinds, sorted by rule id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def rules_by_id(rule_ids: Iterable[str]) -> List[Type[Rule]]:
    """Resolve rule ids (or pack prefixes like ``DET``) to classes.

    Ids and prefixes from any pack may be mixed; one that matches no
    registered rule raises :class:`KeyError`.
    """
    wanted: List[Type[Rule]] = []
    for rid in rule_ids:
        if rid in _REGISTRY:
            wanted.append(_REGISTRY[rid])
            continue
        pack = [cls for k, cls in sorted(_REGISTRY.items()) if k.startswith(rid)]
        if not pack:
            raise KeyError(f"unknown rule or pack {rid!r}")
        wanted.extend(pack)
    return wanted
