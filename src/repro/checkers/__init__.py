"""repro.checkers — AST-based invariant linter for the repro codebase.

The simulation's three load-bearing disciplines are conventions, not
types: deterministic named RNG streams, one unit system encoded in
identifier suffixes, and declared state machines for VMs and hosts.
This package turns those conventions into machine-checked rules.  Four
packs check one module at a time:

* ``DET1xx`` — everything stochastic flows through
  :class:`~repro.simulator.randomness.RngStreams`; no wall clocks, no
  unsorted-set iteration in result-producing packages;
* ``UNIT1xx`` — ``_s`` / ``_mib`` / ``_mib_per_s`` / ``_w`` / ``_j``
  suffix families must not mix without a :mod:`repro.units` helper;
* ``SM1xx`` — power/activity/residency assignments name a declared
  member of the attribute's own enum (the ``Host.power_state`` setter
  checks each power transition at run time);
* ``API1xx`` — every ``__all__`` entry resolves and every public
  ``__init__`` symbol is exported exactly once.

Three packs in :mod:`repro.checkers.flow` prove the cross-module
properties a single module cannot show: RNG-stream attribution through
the call graph (``FLOW1xx``), index-write encapsulation (``ENC2xx``),
and trace purity (``TRC3xx``).

``python -m repro.checkers [paths]`` runs all seven packs in one pass
that parses and walks each file once; suppress one finding with a
``# repro: noqa[RULE]`` comment on the flagged line, or a whole file
with ``# repro: noqa-file[RULE]``.
"""

from repro.checkers.base import (
    ModuleContext,
    ProjectRule,
    Rule,
    all_rules,
    register,
    rules_by_id,
)
from repro.checkers.driver import (
    check_paths,
    check_source,
    iter_python_files,
    module_name_for,
)
from repro.checkers.findings import Finding
from repro.checkers.suppress import collect_suppressions, is_suppressed

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "check_paths",
    "check_source",
    "collect_suppressions",
    "is_suppressed",
    "iter_python_files",
    "module_name_for",
    "register",
    "rules_by_id",
]
