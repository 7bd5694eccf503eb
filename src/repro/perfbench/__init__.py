"""Performance benchmark harness for the farm simulator.

``python -m repro.cli perfbench`` times :func:`simulate_day` and sweep
throughput across policies and cluster scales, emits a sorted-key JSON
report (``BENCH_hotpath.json`` at the repo root), and prints a cProfile
top-N table of the hottest simulator frames.  The committed report is
the baseline every future perf PR measures against; CI replays the
quick subset and fails on a large regression (see
:func:`check_regression`).

Determinism: this package lives inside the DET checker scope, so it
never reads the wall clock itself — every timing flows through a
``clock`` callable injected by the caller (the CLI passes
``time.perf_counter``).  Everything in the report except the ``timing``
blocks is a pure function of the case list, which
:func:`strip_timings` makes testable.
"""

from repro.perfbench.harness import (
    BenchCase,
    CaseResult,
    default_cases,
    fullscale_cases,
    quick_cases,
    run_case,
    run_perfbench,
)
from repro.perfbench.report import (
    SCHEMA,
    attach_baseline,
    check_regression,
    load_report,
    render_case_table,
    strip_timings,
    validate_limit,
    validate_report,
    write_report,
)

__all__ = [
    "BenchCase",
    "CaseResult",
    "default_cases",
    "fullscale_cases",
    "quick_cases",
    "run_case",
    "run_perfbench",
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
