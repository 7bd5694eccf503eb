"""Whole-program flow analysis: RNG discipline, index encapsulation,
trace purity.

Layered like a small compiler front half:

- :mod:`~repro.checkers.flow.descriptors` — the abstract value domain.
- :mod:`~repro.checkers.flow.summary` — one cached, JSON-serialisable
  effect summary per module.
- :mod:`~repro.checkers.flow.project` — linking, type resolution, the
  RNG-attribution fixpoint, and draw/tracer classification.
- :mod:`~repro.checkers.flow.rules_flow` / ``rules_enc`` / ``rules_trc``
  — the FLOW1xx / ENC2xx / TRC3xx packs.
- :mod:`~repro.checkers.flow.runner` — the ``--project`` entry point
  with caching and the reviewed-baseline mechanism.
"""

from repro.checkers.flow.baseline import (
    DEFAULT_BASELINE_PATH,
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.checkers.flow.cache import DEFAULT_CACHE_PATH, SummaryCache
from repro.checkers.flow.project import (
    ProjectContext,
    ProjectFinding,
    ProjectRule,
    all_project_rules,
    project_rules_by_id,
    register_project,
)
from repro.checkers.flow.runner import (
    ProjectResult,
    check_project,
    project_rule_metadata,
)
from repro.checkers.flow.sarif import to_sarif
from repro.checkers.flow.summary import (
    SUMMARY_VERSION,
    ModuleSummary,
    summarize_source,
)

__all__ = [
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_CACHE_PATH",
    "BaselineEntry",
    "ModuleSummary",
    "ProjectContext",
    "ProjectFinding",
    "ProjectResult",
    "ProjectRule",
    "SUMMARY_VERSION",
    "SummaryCache",
    "all_project_rules",
    "apply_baseline",
    "check_project",
    "load_baseline",
    "project_rule_metadata",
    "project_rules_by_id",
    "register_project",
    "summarize_source",
    "to_sarif",
]
