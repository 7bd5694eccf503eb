"""Perfbench report I/O: JSON schema, baselines, regression gate.

The report written to ``BENCH_hotpath.json`` has three layers:

* ``cases`` — the timings and fingerprints of this run ("after");
* ``baseline`` — optionally, the ``cases`` block of an earlier run
  ("before"), attached with :func:`attach_baseline`;
* ``speedup`` — per-case ``baseline best_s / current best_s`` ratios,
  computed when a baseline is attached.

:func:`check_regression` is the CI gate: it compares a fresh quick run
against the committed report and fails on a large (default 2.5×)
slowdown of any shared case — generous enough to ride out noisy CI
hosts, tight enough to catch an accidental O(V)-per-interval
reintroduction — and on any change to a shared case's fingerprint,
so a case no golden pins cannot change its results unseen.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

from repro.errors import ConfigError

__all__ = [
    "SCHEMA",
    "attach_baseline",
    "check_regression",
    "load_report",
    "render_case_table",
    "strip_timings",
    "validate_limit",
    "validate_report",
    "write_report",
]

SCHEMA = "repro.perfbench/1"

#: Keys every case block must carry.
_CASE_KEYS = ("config", "timing", "fingerprint")


def validate_report(report: Dict[str, object]) -> None:
    """Raise :class:`ConfigError` unless ``report`` matches the schema."""
    problems: List[str] = []
    if report.get("schema") != SCHEMA:
        problems.append(
            f"schema must be {SCHEMA!r}, got {report.get('schema')!r}"
        )
    if not isinstance(report.get("quick"), bool):
        problems.append("'quick' must be a bool")
    cases = report.get("cases")
    if not isinstance(cases, dict) or not cases:
        problems.append("'cases' must be a non-empty object")
        cases = {}
    for name in sorted(cases):
        block = cases[name]
        if not isinstance(block, dict):
            problems.append(f"case {name!r} must be an object")
            continue
        for key in _CASE_KEYS:
            if not isinstance(block.get(key), dict):
                problems.append(f"case {name!r} is missing {key!r}")
        timing = block.get("timing")
        if isinstance(timing, dict):
            best = timing.get("best_s")
            if not isinstance(best, (int, float)) or best <= 0.0:
                problems.append(
                    f"case {name!r} timing.best_s must be a positive number"
                )
    baseline = report.get("baseline")
    if baseline is not None and not isinstance(baseline, dict):
        problems.append("'baseline' must be an object when present")
    if problems:
        raise ConfigError(
            "invalid perfbench report: " + "; ".join(problems)
        )


def strip_timings(report: Dict[str, object]) -> Dict[str, object]:
    """A deep copy of ``report`` with every ``timing`` block (and any
    ``speedup`` section) removed — what must be run-to-run identical."""
    stripped = json.loads(json.dumps(report))
    stripped.pop("speedup", None)
    for section in ("cases", "baseline"):
        block = stripped.get(section)
        if isinstance(block, dict):
            for name in sorted(block):
                if isinstance(block[name], dict):
                    block[name].pop("timing", None)
    return stripped


def _best_s(case_block: object) -> Optional[float]:
    if not isinstance(case_block, dict):
        return None
    timing = case_block.get("timing")
    if not isinstance(timing, dict):
        return None
    best = timing.get("best_s")
    if isinstance(best, (int, float)) and best > 0.0:
        return float(best)
    return None


def _fingerprint(case_block: object) -> object:
    if not isinstance(case_block, dict):
        return None
    return case_block.get("fingerprint")


def attach_baseline(
    report: Dict[str, object], baseline_report: Dict[str, object]
) -> Dict[str, object]:
    """A copy of ``report`` carrying ``baseline_report``'s cases as the
    "before" section, with per-case ``speedup`` ratios."""
    validate_report(baseline_report)
    merged = dict(report)
    baseline_cases = baseline_report.get("cases", {})
    merged["baseline"] = baseline_cases
    speedup: Dict[str, float] = {}
    current_cases = report.get("cases", {})
    assert isinstance(current_cases, dict)
    assert isinstance(baseline_cases, dict)
    for name in sorted(set(current_cases) & set(baseline_cases)):
        before = _best_s(baseline_cases[name])
        after = _best_s(current_cases[name])
        if before is not None and after is not None:
            speedup[name] = before / after
    merged["speedup"] = speedup
    return merged


def validate_limit(limit: float) -> None:
    """Reject a regression limit that cannot gate: at most 1.0, NaN
    (which every comparison lets through) or infinite."""
    if not 1.0 < limit < math.inf:
        raise ConfigError(
            f"regression limit must be a finite factor > 1.0, got {limit}"
        )


def _first_difference(before: object, after: object, path: str) -> str:
    """The dotted path of the first key, in sorted order, at which two
    fingerprints differ; empty if they are equal."""
    if not (isinstance(before, dict) and isinstance(after, dict)):
        return "" if before == after else path
    for key in sorted(set(before) | set(after)):
        where = f"{path}.{key}"
        if key not in before or key not in after:
            return where
        found = _first_difference(before[key], after[key], where)
        if found:
            return found
    return ""


def check_regression(
    report: Dict[str, object],
    baseline_report: Dict[str, object],
    limit: float = 2.5,
) -> List[str]:
    """Failure messages for every shared case that got > ``limit``×
    slower than the baseline or whose fingerprint differs from it;
    empty list means the gate passes."""
    validate_limit(limit)
    current_cases = report.get("cases", {})
    baseline_cases = baseline_report.get("cases", {})
    assert isinstance(current_cases, dict)
    assert isinstance(baseline_cases, dict)
    shared = sorted(set(current_cases) & set(baseline_cases))
    if not shared:
        return ["no bench cases shared with the baseline report"]
    failures: List[str] = []
    for name in shared:
        before = _best_s(baseline_cases[name])
        after = _best_s(current_cases[name])
        if before is None or after is None:
            failures.append(f"{name}: missing best_s timing")
        elif after > limit * before:
            failures.append(
                f"{name}: {after:.3f} s vs baseline {before:.3f} s "
                f"({after / before:.2f}x > {limit}x limit)"
            )
        differs = _first_difference(
            _fingerprint(baseline_cases[name]),
            _fingerprint(current_cases[name]), "fingerprint",
        )
        if differs:
            failures.append(
                f"{name}: result differs from the baseline at {differs}"
            )
    return failures


def load_report(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if not isinstance(report, dict):
        raise ConfigError(f"{path} does not contain a JSON object")
    return report


def write_report(report: Dict[str, object], path: str) -> None:
    """Sorted-key, newline-terminated JSON — byte-stable given equal
    content, so report diffs are reviewable."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_case_table(report: Dict[str, object]) -> str:
    """A text summary of the report's cases (plus speedups if any)."""
    from repro.analysis import format_table

    cases = report.get("cases", {})
    speedup = report.get("speedup", {})
    assert isinstance(cases, dict)
    assert isinstance(speedup, dict)
    rows = []
    for name in sorted(cases):
        block = cases[name]
        best = _best_s(block)
        timing = block.get("timing", {}) if isinstance(block, dict) else {}
        throughput = ""
        if isinstance(timing, dict):
            per_sec = timing.get("vm_intervals_per_sec",
                                 timing.get("runs_per_sec"))
            if isinstance(per_sec, (int, float)):
                throughput = f"{per_sec:,.0f}"
        ratio = speedup.get(name)
        rows.append((
            name,
            f"{best:.3f}" if best is not None else "?",
            throughput,
            f"{ratio:.2f}x" if isinstance(ratio, (int, float)) else "-",
        ))
    return format_table(
        ["case", "best (s)", "items/s", "speedup"], rows
    )
