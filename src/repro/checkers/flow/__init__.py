"""Whole-program flow analysis: RNG attribution, raw index containers,
tracer emissions used as values.

Layered like a small compiler front half:

- :mod:`~repro.checkers.flow.descriptors` — the abstract value domain.
- :mod:`~repro.checkers.flow.summary` — one effect summary per module,
  built from the tree the lint driver already parsed.
- :mod:`~repro.checkers.flow.project` — linking, type resolution, the
  RNG-attribution fixpoint, and draw/tracer classification.
- :mod:`~repro.checkers.flow.rules_flow` / ``rules_enc`` / ``rules_trc``
  — FLOW101, ENC202 and TRC301, one rule each.  They are
  :class:`~repro.checkers.base.ProjectRule` classes in the one rule
  registry, and :mod:`repro.checkers.driver` runs them in the same pass
  as the per-module packs.

Importing this package registers the three packs.
"""

from repro.checkers.flow import rules_enc, rules_flow, rules_trc

__all__ = ["rules_enc", "rules_flow", "rules_trc"]
