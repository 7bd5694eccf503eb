"""The one lint pass: parse each file once, run every rule, suppress once.

For each file the driver reads, parses and tokenizes the source once.
The module rules (DET, UNIT, SM, API) check that tree, and the file's
flow summary is built from the same tree.  The summaries are then linked
into one :class:`~repro.checkers.flow.project.ProjectContext`, the
project rules (FLOW, ENC, TRC) check it, and the ``noqa`` suppressions
and the ``(path, line, col, rule)`` dedupe apply once to every finding.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.checkers.base import ModuleContext, ProjectRule, Rule, all_rules
from repro.checkers.findings import Finding
from repro.checkers.flow.project import ProjectContext
from repro.checkers.flow.summary import ModuleSummary, summarize_tree
from repro.checkers.suppress import (
    Suppressions,
    collect_suppressions,
    is_suppressed,
)

# Importing the packs registers their rules.
from repro.checkers import flow as _flow  # noqa: F401  (import for side effect)
from repro.checkers import rules as _rules  # noqa: F401  (import for side effect)

#: One file to lint: ``(path, dotted module name or None, source)``.
Source = Tuple[str, Optional[str], str]


def module_name_for(path: str) -> Optional[str]:
    """Derive the dotted import path from a file path.

    Walks the path components looking for the ``repro`` package root, so
    both ``src/repro/farm/simulation.py`` and an absolute path to the
    same file map to ``repro.farm.simulation``.  Returns ``None`` when
    the file is not under a ``repro`` directory.
    """
    norm = os.path.normpath(path)
    parts = norm.split(os.sep)
    try:
        start = parts.index("repro")
    except ValueError:
        return None
    dotted = parts[start:]
    if dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def _parse_finding(
    path: str, message: str, hint: str, line: int = 1, col: int = 1
) -> Finding:
    """The one finding for a file no rule could run on."""
    return Finding(
        path=path,
        line=line,
        col=col,
        rule_id="PARSE",
        message=message,
        hint=hint,
    )


def _lint(
    sources: Iterable[Source],
    rules: Optional[Sequence[Type[Rule]]],
    found: List[Finding],
) -> Tuple[List[Finding], ProjectContext]:
    """Run the selected rules of both kinds over ``sources`` in one pass.

    ``found`` holds findings made before parsing (unreadable files); the
    result extends it and sorts it by location.
    """
    selected = all_rules() if rules is None else rules
    module_rules = [r() for r in selected if not issubclass(r, ProjectRule)]
    project_rules = [r() for r in selected if issubclass(r, ProjectRule)]
    raw: List[Finding] = []
    summaries: List[ModuleSummary] = []
    noqa: Dict[str, Suppressions] = {}
    for path, module_name, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            found.append(
                _parse_finding(
                    path,
                    f"syntax error: {exc.msg}",
                    "fix the syntax error; no rules were run on this file",
                    line=exc.lineno or 1,
                    col=exc.offset or 1,
                )
            )
            continue
        except ValueError as exc:
            # ``ast.parse`` raises bare ValueError for e.g. null bytes.
            found.append(
                _parse_finding(
                    path,
                    f"unparseable source: {exc}",
                    "fix the file encoding; no rules were run on this file",
                )
            )
            continue
        noqa[path] = collect_suppressions(source)
        ctx = ModuleContext(
            path=path, source=source, tree=tree, module_name=module_name
        )
        for rule in module_rules:
            raw.extend(rule.check(ctx))
        summaries.append(summarize_tree(tree, path, module_name))

    project = ProjectContext(summaries)
    for rule in project_rules:
        raw.extend(rule.check(project))

    # Dedupe on location and rule: a call recorded both in a lambda and
    # its enclosing function must yield one finding, not two.
    seen = set()
    for finding in raw:
        if finding.sort_key in seen:
            continue
        seen.add(finding.sort_key)
        if not is_suppressed(
            noqa[finding.path], finding.line, finding.rule_id
        ):
            found.append(finding)
    found.sort(key=lambda f: f.sort_key)
    return found, project


def check_source(
    source: str,
    path: str = "<string>",
    module_name: Optional[str] = None,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> List[Finding]:
    """Lint one source string as a one-module project.

    The entry point the rule tests use: every selected rule runs, the
    project rules against a project holding only this module.
    ``module_name`` scopes package-restricted rules; ``None`` means every
    module rule treats the source as in-scope.
    """
    return _lint([(path, module_name, source)], rules, [])[0]


def read_source(path: str) -> str:
    """Read one source file as UTF-8 (the project's only encoding)."""
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__",)
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            files.append(path)
    return sorted(dict.fromkeys(files))


def check_paths(
    paths: Iterable[str], rules: Optional[Sequence[Type[Rule]]] = None
) -> Tuple[List[Finding], ProjectContext]:
    """Lint every ``.py`` file under ``paths`` in one pass.

    Returns the findings, sorted by location, and the linked project the
    project rules checked.  A file the driver cannot read or decode is
    reported as a structured ``PARSE`` finding instead of raising, so one
    bad file cannot abort a whole-tree run.
    """
    sources: List[Source] = []
    unreadable: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = read_source(path)
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(
                _parse_finding(
                    path,
                    f"unreadable file: {exc}",
                    "fix the file's encoding or permissions",
                )
            )
            continue
        sources.append((path, module_name_for(path), source))
    return _lint(sources, rules, unreadable)
