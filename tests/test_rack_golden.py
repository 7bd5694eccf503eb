"""Golden paper-scale days: seven pinned 900-VM days must reproduce
exactly.

``tests/golden/rack_golden.json`` snapshots one seeded ``FarmConfig()``
day per ``RACK_DAYS`` entry — the four paper policies, GammaRobust@1
and GammaRobust@3 on a weekday, plus a GammaRobust@3 weekend day.  The
16-VM farm goldens seldom exercise multi-placement rollbacks or long
spike-room lists; these days do, so a planner change that moves any of
their results at scale fails here.  Regenerate only for an intended
result change, with ``tests/golden/update_goldens.py``.

The days take several seconds, so the battery is marked ``slow``; the
full tier runs it on CPython 3.11, where the file was written.  From
3.12 on, ``sum()`` of floats is compensated, and on these days the
plain and the exactly rounded home-sleep and network-traffic totals
differ in their last bits.
"""

import json
import os

import pytest

from tests.golden.update_goldens import (
    RACK_DAYS,
    RACK_GOLDEN_PATH,
    simulate_rack_day,
    snapshot_result,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def rack_goldens() -> dict:
    assert os.path.exists(RACK_GOLDEN_PATH), (
        "missing tests/golden/rack_golden.json; run "
        "PYTHONPATH=src python tests/golden/update_goldens.py"
    )
    with open(RACK_GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_rack_golden_covers_pinned_days(rack_goldens):
    assert {
        key: day["seed"] for key, day in rack_goldens["days"].items()
    } == RACK_DAYS


@pytest.mark.parametrize("key", sorted(RACK_DAYS))
def test_rack_day_matches_golden(rack_goldens, key):
    pinned = rack_goldens["days"][key]
    snapshot = snapshot_result(simulate_rack_day(key, pinned["seed"]))
    # Round-trip through JSON so float representation matches the file.
    assert json.loads(json.dumps(snapshot)) == pinned["result"]
