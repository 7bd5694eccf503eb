"""The accounting ledger is the day's single record (DESIGN.md §16).

``FarmSimulation`` calls its ``ClusterManager`` for every planner query
and writes every bookkeeping record through one
:class:`~repro.farm.planes.FarmAccountingLedger`.  These tests pin that
contract from three angles:

* the ledger is installed and shares the result's records (same
  objects, not copies);
* across a battery of randomized farm shapes and fault profiles, the
  ledger's read-back equals the ``FarmResult`` fields — energy to the
  bit, per-state splits to float reassociation;
* the ``simulate`` stdout is byte-identical to the committed golden.
"""

import json
import math
import random

import pytest

from repro.farm import (
    SURCHARGE_STATE,
    FarmAccountingLedger,
    FarmConfig,
    FarmSimulation,
)
from repro.farm.runner import RunSpec
from repro.faults import fault_profile_by_name
from repro.traces import DayType, generate_ensemble
from tests.golden.update_goldens import GOLDEN_PATH, simulate_stdout


def _run_simulation(config, policy, day_type, seed):
    """Construct, run, and hand back the simulation (not just the result)."""
    spec = RunSpec(config, policy, day_type, seed)
    ensemble = generate_ensemble(
        config.total_vms, day_type, seed=spec.trace_seed, config=config.traces
    )
    sim = FarmSimulation(config, policy, ensemble, seed=seed)
    result = sim.run()
    return sim, result


class TestPlaneInstallation:
    def test_reference_planes_installed(self):
        config = FarmConfig(home_hosts=2, consolidation_hosts=1,
                            vms_per_host=2)
        ensemble = generate_ensemble(
            config.total_vms, DayType.WEEKDAY, seed=3, config=config.traces
        )
        sim = FarmSimulation(config, "Default", ensemble, seed=3)
        assert type(sim.ledger) is FarmAccountingLedger
        assert sim.faults is sim.ledger.faults
        # Readers go through sim.manager and sim.ledger; no aliases.
        for alias in ("decisions", "accountant", "tracker"):
            assert not hasattr(sim, alias), alias

    def test_ledger_shares_result_records(self):
        config = FarmConfig(home_hosts=2, consolidation_hosts=1,
                            vms_per_host=2)
        ensemble = generate_ensemble(
            config.total_vms, DayType.WEEKDAY, seed=4, config=config.traces
        )
        sim = FarmSimulation(config, "Default", ensemble, seed=4)
        assert sim.ledger.traffic is sim.result.traffic
        assert sim.ledger.counters is sim.result.counters
        assert sim.ledger.faults is sim.result.faults


def _random_shapes(count, seed=20160418):
    rng = random.Random(seed)
    shapes = []
    for _ in range(count):
        shapes.append(
            dict(
                home_hosts=rng.randint(2, 5),
                consolidation_hosts=rng.randint(1, 3),
                vms_per_host=rng.randint(2, 5),
            )
        )
    return shapes


@pytest.mark.slow
class TestLedgerMatchesResult:
    """Ledger read-back == FarmResult fields, property-style."""

    #: 100 random farm shapes, each run under both extreme fault
    #: profiles — the battery the ledger's correctness claim rests on.
    SHAPES = _random_shapes(100)

    @pytest.mark.parametrize("profile", ["none", "heavy"])
    def test_ledger_totals_equal_result_fields(self, profile):
        rng = random.Random({"none": 101, "heavy": 102}[profile])
        policies = ("OnlyPartial", "Default", "FulltoPartial", "NewHome")
        for index, shape in enumerate(self.SHAPES):
            config = FarmConfig(
                **shape, faults=fault_profile_by_name(profile)
            )
            policy = policies[index % len(policies)]
            day = DayType.WEEKDAY if index % 2 == 0 else DayType.WEEKEND
            sim, result = _run_simulation(
                config, policy, day, seed=rng.randrange(2**31)
            )
            ledger = sim.ledger

            # Energy: the ledger IS the result's source of truth.
            assert result.energy is not None
            assert result.energy.managed_joules == ledger.total_joules()

            # Per-state energy is additive-only metering: it must
            # reassemble the managed total (float reassociation only).
            state_energy = ledger.state_energy_j()
            assert result.state_energy_j == state_energy
            assert math.isclose(
                sum(state_energy.values()),
                result.energy.managed_joules,
                rel_tol=1e-9,
            )
            assert all(v >= 0.0 for v in state_energy.values())

            # State residence: result snapshot == ledger read-back, and
            # per-host sleep seconds come from the same tracker.
            assert result.state_time_s == ledger.state_time_s()
            for host_id, sleep_s in result.home_sleep_s.items():
                assert sleep_s == ledger.state_duration(host_id, "sleeping")

    def test_surcharge_bucket_only_when_lump_charged(self):
        # The surcharge pseudo-state appears iff add_energy ever fired;
        # when present it is positive and bounded by the managed total.
        config = FarmConfig(home_hosts=3, consolidation_hosts=1,
                            vms_per_host=3)
        sim, result = _run_simulation(
            config, "FulltoPartial", DayType.WEEKDAY, seed=17
        )
        split = result.state_energy_j
        if SURCHARGE_STATE in split:
            assert 0.0 < split[SURCHARGE_STATE]
            assert split[SURCHARGE_STATE] <= result.energy.managed_joules


class TestGoldenStdoutSeam:
    """The ledger did not shift a byte: pinned stdout vs committed golden.

    ``tests/test_farm_golden.py`` guards this for every policy; this
    duplicate of one policy states the ledger's contract where the
    ledger is tested, so a future ledger change failing here points
    straight at it rather than at "some golden drifted".
    """

    def test_stdout_byte_identical_to_committed_golden(self):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            goldens = json.load(handle)
        pinned = goldens["policies"]["FulltoPartial"]
        assert simulate_stdout("FulltoPartial", pinned["seed"]) == (
            pinned["simulate_stdout"]
        )
