"""Inline suppression comments.

A finding is suppressed by a comment on the *flagged line*::

    value = random.Random()  # repro: noqa[DET102]
    value = random.Random()  # repro: noqa[DET102,UNIT101]
    value = random.Random()  # repro: noqa

``noqa`` with no bracket suppresses every rule on that line; with a
bracket it suppresses only the listed rule ids.  Suppressions are parsed
from real COMMENT tokens (via :mod:`tokenize`), so the marker inside a
string literal does not suppress anything.

A whole file opts out of specific rules with the file-level form (on any
line, conventionally near the top)::

    # repro: noqa-file[DET101]
    # repro: noqa-file[DET101,FLOW101]
    # repro: noqa-file

The bare form suppresses every rule in the file; use it only for
generated or vendored sources.  One tokenize pass collects both forms.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, Tuple

#: Matches ``repro: noqa`` and ``repro: noqa[RULE1,RULE2]`` inside a
#: comment.  The negative lookahead keeps the line form from matching a
#: ``noqa-file`` marker's prefix.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?!-file)(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?",
)

#: Matches the file-level ``repro: noqa-file`` / ``noqa-file[RULES]`` form.
_NOQA_FILE_RE = re.compile(
    r"#\s*repro:\s*noqa-file(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?",
)

#: Sentinel rule-set meaning "suppress everything" (bare ``noqa``).
ALL_RULES: FrozenSet[str] = frozenset({"*"})

#: ``(line -> suppressed rule ids, rule ids suppressed file-wide)``.
Suppressions = Tuple[Dict[int, FrozenSet[str]], FrozenSet[str]]


def _rule_set(rules: str) -> FrozenSet[str]:
    return frozenset(r.strip().upper() for r in rules.split(",") if r.strip())


def collect_suppressions(source: str) -> Suppressions:
    """Both ``noqa`` forms of ``source``, from one tokenize pass.

    The line map sends a line number to its suppressed rule ids
    (:data:`ALL_RULES` for a bare ``noqa``); the file set is the union of
    every ``noqa-file`` list (:data:`ALL_RULES` for the bare form, empty
    when the marker is absent).
    """
    lines: Dict[int, FrozenSet[str]] = {}
    whole_file: FrozenSet[str] = frozenset()
    reader = io.StringIO(source).readline
    try:
        for tok in tokenize.generate_tokens(reader):
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_FILE_RE.search(tok.string)
            if match is not None:
                rules = match.group("rules")
                whole_file |= ALL_RULES if rules is None else _rule_set(rules)
            match = _NOQA_RE.search(tok.string)
            if match is not None:
                rules = match.group("rules")
                wanted = ALL_RULES if rules is None else _rule_set(rules)
                line = tok.start[0]
                lines[line] = lines.get(line, frozenset()) | (
                    wanted or ALL_RULES
                )
    except tokenize.TokenError:
        # Unterminated strings etc.: the AST parse reports the real
        # problem; keep whatever was collected before the error.
        pass
    return lines, whole_file


def is_suppressed(
    suppressions: Suppressions, line: int, rule_id: str
) -> bool:
    """Whether ``rule_id`` is suppressed on ``line`` or file-wide."""
    lines, whole_file = suppressions
    for rules in (whole_file, lines.get(line, frozenset())):
        if "*" in rules or rule_id.upper() in rules:
            return True
    return False
