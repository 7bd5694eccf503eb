"""Golden trace ensembles: every pinned ensemble must regenerate exactly.

``tests/golden/ensemble_golden.json`` holds the SHA-256 of each
ensemble in ``ENSEMBLE_CONFIGS`` — the paper rack's default ensemble
and three configs that reach the generator's edge branches — on both
day types.  Every simulated day starts from such an ensemble, so a
generator change that moves one draw moves every golden downstream;
this battery names the ensemble instead.  Regenerate only for an
intended change to the trace model, with
``tests/golden/update_goldens.py``.
"""

import json
import os

import pytest

from tests.golden.update_goldens import (
    ENSEMBLE_GOLDEN_PATH,
    ensemble_keys,
    ensemble_sha256,
)


@pytest.fixture(scope="module")
def ensemble_goldens() -> dict:
    assert os.path.exists(ENSEMBLE_GOLDEN_PATH), (
        "missing tests/golden/ensemble_golden.json; run "
        "PYTHONPATH=src python tests/golden/update_goldens.py"
    )
    with open(ENSEMBLE_GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_pinned_ensembles(ensemble_goldens):
    assert sorted(ensemble_goldens["sha256"]) == sorted(ensemble_keys())


@pytest.mark.parametrize("key", ensemble_keys())
def test_ensemble_matches_golden(ensemble_goldens, key):
    assert ensemble_sha256(key) == ensemble_goldens["sha256"][key]
