"""Golden faulted days: five pinned heavy-fault days must reproduce
exactly.

``tests/golden/fault_golden.json`` snapshots one seeded ``heavy``-fault
weekday on the golden small farm per ``FAULT_DAYS`` entry — the four
paper policies and GammaRobust@3.  The farm, gamma and rack goldens are
fault-free, so these days are what pins the engine's aborted migrations,
their rollback charges and its failed wakes.  Each entry also pins the
per-state time and energy split, so a change to the energy meter that
moves a joule between power states fails here.  Regenerate only for an
intended result change, with ``tests/golden/update_goldens.py``.

Marked ``slow`` like the rack golden: the full tier runs it on CPython
3.11, where the file was written.  From 3.12 on, ``sum()`` of floats is
compensated, and on four of these days the plain and the exactly
rounded managed-energy and home-sleep totals differ in their last bits.
"""

import json
import os

import pytest

from tests.golden.update_goldens import (
    FARM_SHAPE,
    FAULT_DAYS,
    FAULT_GOLDEN_PATH,
    FAULT_PROFILE,
    simulate_fault_day,
    snapshot_fault_result,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def fault_goldens() -> dict:
    assert os.path.exists(FAULT_GOLDEN_PATH), (
        "missing tests/golden/fault_golden.json; run "
        "PYTHONPATH=src python tests/golden/update_goldens.py"
    )
    with open(FAULT_GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_fault_golden_covers_pinned_days(fault_goldens):
    assert fault_goldens["farm_shape"] == FARM_SHAPE
    assert fault_goldens["fault_profile"] == FAULT_PROFILE
    assert {
        name: day["seed"] for name, day in fault_goldens["days"].items()
    } == FAULT_DAYS


def test_fault_days_abort_migrations(fault_goldens):
    # The golden is only worth its keep while its days roll back moves.
    for name, day in fault_goldens["days"].items():
        assert day["result"]["fault_counters"]["migration_aborts"] > 0, name


@pytest.mark.parametrize("policy_name", sorted(FAULT_DAYS))
def test_fault_day_matches_golden(fault_goldens, policy_name):
    pinned = fault_goldens["days"][policy_name]
    snapshot = snapshot_fault_result(
        simulate_fault_day(policy_name, pinned["seed"])
    )
    # Round-trip through JSON so float representation matches the file.
    assert json.loads(json.dumps(snapshot)) == pinned["result"]
