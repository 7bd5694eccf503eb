"""Minimal SARIF 2.1.0 rendering of checker findings.

Just enough of the schema for code-scanning UIs to ingest: one run, one
driver, per-rule metadata, and one result per finding with a physical
location.  No external dependencies.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Type

from repro.checkers.base import Rule
from repro.checkers.findings import Finding

_SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_meta(rule_id: str, summary: str, hint: str) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "id": rule_id,
        "shortDescription": {"text": summary or rule_id},
    }
    if hint:
        meta["help"] = {"text": hint}
    return meta


def to_sarif(
    findings: Sequence[Finding], rules: Sequence[Type[Rule]]
) -> Dict[str, Any]:
    """Render findings as a SARIF log object (caller serialises).

    Every rule in ``rules`` is described, plus any other id a finding
    carries (``PARSE``).
    """
    metadata = {
        cls.rule_id: _rule_meta(cls.rule_id, cls.summary, cls.hint)
        for cls in rules
    }
    for finding in findings:
        if finding.rule_id not in metadata:
            metadata[finding.rule_id] = _rule_meta(
                finding.rule_id, "", finding.hint
            )
    results = [
        {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/")
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-checkers",
                        "rules": [metadata[k] for k in sorted(metadata)],
                    }
                },
                "results": results,
            }
        ],
    }
