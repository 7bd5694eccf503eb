"""The four per-module rule packs.

Importing this package registers every rule with the global registry in
:mod:`repro.checkers.base`:

* ``DET1xx`` — determinism (:mod:`repro.checkers.rules.determinism`);
* ``UNIT1xx`` — unit-suffix safety (:mod:`repro.checkers.rules.unitsafe`);
* ``SM1xx`` — state machines (:mod:`repro.checkers.rules.statemachine`);
* ``API1xx`` — export surface (:mod:`repro.checkers.rules.api`).
"""

from repro.checkers.rules import api, determinism, statemachine, unitsafe

__all__ = ["api", "determinism", "statemachine", "unitsafe"]
