"""Golden end-to-end regression: pinned seeds must reproduce exactly.

``tests/golden/farm_golden.json`` snapshots one seeded small-farm day
per policy — savings fraction, every migration and fault counter, the
traffic ledger, and the byte-exact ``simulate`` stdout.  Any drift means
a change altered simulation results; if that is intended, regenerate
with ``tests/golden/update_goldens.py`` and explain the diff in review.
"""

import json
import os

import pytest

from tests.golden.update_goldens import (
    FARM_SHAPE,
    GAMMA_GOLDEN_PATH,
    GAMMA_SEEDS,
    GOLDEN_PATH,
    POLICY_SEEDS,
    simulate_stdout,
    snapshot_result,
)
from repro.core import policy_by_name
from repro.farm import FarmConfig, simulate_day
from repro.traces import DayType


@pytest.fixture(scope="module")
def goldens() -> dict:
    assert os.path.exists(GOLDEN_PATH), (
        "missing tests/golden/farm_golden.json; run "
        "PYTHONPATH=src python tests/golden/update_goldens.py"
    )
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_policy(goldens):
    assert set(goldens["policies"]) == set(POLICY_SEEDS)
    assert goldens["farm_shape"] == FARM_SHAPE


@pytest.mark.parametrize("policy_name", sorted(POLICY_SEEDS))
def test_result_matches_golden(goldens, policy_name):
    pinned = goldens["policies"][policy_name]
    config = FarmConfig(**FARM_SHAPE)
    result = simulate_day(
        config,
        policy_by_name(policy_name),
        DayType.WEEKDAY,
        seed=pinned["seed"],
    )
    snapshot = snapshot_result(result)
    # Round-trip through JSON so float representation matches the file.
    assert json.loads(json.dumps(snapshot)) == pinned["result"]


@pytest.mark.parametrize("policy_name", sorted(POLICY_SEEDS))
def test_cli_stdout_matches_golden(goldens, policy_name):
    pinned = goldens["policies"][policy_name]
    assert simulate_stdout(policy_name, pinned["seed"]) == (
        pinned["simulate_stdout"]
    )


@pytest.mark.parametrize("policy_name", sorted(POLICY_SEEDS))
def test_explicit_single_zone_stdout_matches_golden(goldens, policy_name):
    """``--zones 1`` must be byte-identical to the pre-shard golden.

    The single-zone partition is the identity transform: same seed, same
    host ids, same RNG streams — so sharding one zone may not perturb a
    single byte of the pinned stdout (goldens unregenerated).
    """
    import contextlib
    import io

    from repro.cli import main

    pinned = goldens["policies"][policy_name]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main([
            "simulate",
            "--policy", policy_name,
            "--seed", str(pinned["seed"]),
            "--home-hosts", str(FARM_SHAPE["home_hosts"]),
            "--consolidation-hosts", str(FARM_SHAPE["consolidation_hosts"]),
            "--vms-per-host", str(FARM_SHAPE["vms_per_host"]),
            "--zones", "1",
        ])
    assert status == 0
    assert buffer.getvalue() == pinned["simulate_stdout"]


@pytest.mark.parametrize("policy_name", sorted(POLICY_SEEDS))
def test_strategy_layer_preserves_golden_stdout(goldens, policy_name):
    """Name lookup is behavior-preserving: resolving each paper policy
    by *name* must reproduce the golden stdout byte-for-byte (goldens
    unregenerated)."""
    pinned = goldens["policies"][policy_name]
    config = FarmConfig(**FARM_SHAPE)
    via_name = simulate_day(
        config,
        policy_by_name(policy_name),
        DayType.WEEKDAY,
        seed=pinned["seed"],
    )
    assert json.loads(json.dumps(snapshot_result(via_name))) == (
        pinned["result"]
    )
    assert simulate_stdout(policy_name, pinned["seed"]) == (
        pinned["simulate_stdout"]
    )


# ----------------------------------------------------------------------
# GammaRobust goldens (separate file: adding robust policies must never
# force a farm_golden.json regeneration)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def gamma_goldens() -> dict:
    assert os.path.exists(GAMMA_GOLDEN_PATH), (
        "missing tests/golden/gamma_golden.json; run "
        "PYTHONPATH=src python tests/golden/update_goldens.py"
    )
    with open(GAMMA_GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_gamma_golden_covers_pinned_gammas(gamma_goldens):
    assert set(gamma_goldens["policies"]) == set(GAMMA_SEEDS)
    assert gamma_goldens["farm_shape"] == FARM_SHAPE


@pytest.mark.parametrize("policy_name", sorted(GAMMA_SEEDS))
def test_gamma_result_matches_golden(gamma_goldens, policy_name):
    pinned = gamma_goldens["policies"][policy_name]
    config = FarmConfig(**FARM_SHAPE)
    result = simulate_day(
        config,
        policy_by_name(policy_name),
        DayType.WEEKDAY,
        seed=pinned["seed"],
    )
    assert json.loads(json.dumps(snapshot_result(result))) == pinned["result"]


@pytest.mark.parametrize("policy_name", sorted(GAMMA_SEEDS))
def test_gamma_cli_stdout_matches_golden(gamma_goldens, policy_name):
    """``simulate --policy GammaRobust --gamma N`` stdout, byte-exact."""
    pinned = gamma_goldens["policies"][policy_name]
    stdout = simulate_stdout(policy_name, pinned["seed"])
    assert stdout == pinned["simulate_stdout"]
    assert f"policy:           {policy_name} " in stdout
