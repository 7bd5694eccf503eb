"""Command-line entry point: ``python -m repro.checkers [paths...]``.

One pass runs every rule of all seven packs (``DET``, ``UNIT``, ``SM``,
``API``, ``FLOW``, ``ENC``, ``TRC``) unless ``--rules`` selects a subset.
Exit status is 0 when the tree is clean, 1 when any finding survives
suppression, 2 on usage errors.

``--format json`` emits a machine-readable report; ``--format sarif``
emits SARIF 2.1.0 for code-scanning UIs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.checkers.base import all_rules, rules_by_id
from repro.checkers.driver import check_paths, iter_python_files
from repro.checkers.sarif import to_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checkers",
        description=(
            "AST-based invariant linter: determinism, unit-suffix safety, "
            "state machines, API surface, and whole-program RNG "
            "attribution, index encapsulation and trace purity."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help=(
            "comma-separated rule ids or pack prefixes from any pack, "
            "e.g. DET101,UNIT,FLOW"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_cls in all_rules():
            print(f"{rule_cls.rule_id:8s} {rule_cls.summary}")
        return 0

    # A typo'd path silently reporting "0 findings" would turn the CI
    # gate into a no-op; fail loudly instead.
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2
    files = iter_python_files(args.paths)
    if not files:
        print(
            f"error: no .py file under {' '.join(args.paths)}",
            file=sys.stderr,
        )
        return 2

    rules = all_rules()
    if args.rules:
        try:
            rules = rules_by_id(
                [r.strip() for r in args.rules.split(",") if r.strip()]
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    findings, _ = check_paths(files, rules=rules)

    if args.format == "sarif":
        report = to_sarif(findings, rules)
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.format == "json":
        report = {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
            "clean": not findings,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun}")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
