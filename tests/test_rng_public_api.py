"""Hot-path draws go through ``random.Random``'s public methods.

The planner's working-set and destination draws and the migration
traffic samplers call ``gauss``/``choice`` on the stream they are
handed.  A ``random.Random`` subclass therefore sees every one of those
draws, and the values are exactly the library's: the same seed gives
the same plan and the same volumes whether or not the stream is
instrumented.  The Γ-robust planner is handed the same stream by its
strategy and must leave it untouched.
"""

import random

import pytest

from repro.cluster import Cluster
from repro.core import (
    FULL_TO_PARTIAL,
    DestinationStrategy,
    GreedyVacatePlanner,
)
from repro.migration.costs import MigrationCostModel
from repro.policies import GammaRobustStrategy
from repro.vm import VirtualMachine, VmActivity, WorkingSetSampler

SAMPLERS = (
    "sample_descriptor_mib",
    "sample_on_demand_mib",
    "sample_reintegration_mib",
    "sample_sas_upload_mib",
)


class CountingRandom(random.Random):
    """A seeded ``random.Random`` that counts ``gauss``/``choice`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = {"gauss": 0, "choice": 0}

    def gauss(self, mu=0.0, sigma=1.0):
        self.calls["gauss"] += 1
        return super().gauss(mu, sigma)

    def choice(self, seq):
        self.calls["choice"] += 1
        return super().choice(seq)


def _idle_cluster():
    """Three homes of three idle VMs; three powered consolidation hosts,
    each with room for every working set (so each destination draw has
    three candidates)."""
    cluster = Cluster(3, 3, 4 * 4096.0)
    for vm_id in range(9):
        vm = VirtualMachine(vm_id, vm_id // 3, 4096.0)
        vm.set_activity(VmActivity.IDLE)
        vm.idle_intervals = 3
        cluster.host(vm_id // 3).attach(vm)
    return cluster


def _plan(rng):
    planner = GreedyVacatePlanner(
        policy=FULL_TO_PARTIAL,
        working_sets=WorkingSetSampler(),
        rng=rng,
    )
    return planner.plan(_idle_cluster())


class TestPlannerDraws:
    def test_working_set_and_destination_draws_are_seen(self):
        rng = CountingRandom(11)
        plan = _plan(rng)
        migrations = [m for v in plan.vacations for m in v.migrations]
        assert len(migrations) == 9
        # One choice per placement; at least one gauss per working set
        # (the truncated sampler may reject and redraw).
        assert rng.calls["choice"] == 9
        assert rng.calls["gauss"] >= 9
        assert len({m.destination_id for m in migrations}) > 1
        assert plan == _plan(random.Random(11))


class TestGammaPlannerDraws:
    @pytest.mark.parametrize("gamma", [0, 1, 3])
    @pytest.mark.parametrize(
        "destination", [None, DestinationStrategy.RANDOM]
    )
    def test_gamma_planner_draws_nothing(self, gamma, destination):
        rng = CountingRandom(11)
        state = rng.getstate()
        options = {} if destination is None else {"destination": destination}
        planner = GammaRobustStrategy(gamma=gamma).build_planner(
            WorkingSetSampler(), rng, **options
        )
        plan = planner.plan(_idle_cluster())
        assert plan.migration_count == 9
        assert rng.calls == {"gauss": 0, "choice": 0}
        assert rng.getstate() == state


class TestTrafficSamplerDraws:
    def test_each_sample_is_one_gauss(self):
        costs = MigrationCostModel()
        for name in SAMPLERS:
            rng = CountingRandom(5)
            reference = random.Random(5)
            for _ in range(7):
                assert getattr(costs, name)(rng) == getattr(costs, name)(
                    reference
                )
            assert rng.calls == {"gauss": 7, "choice": 0}, name

    def test_negative_tail_clamps_to_a_tenth_of_the_mean(self):
        costs = MigrationCostModel(descriptor_mib_std=1000.0)
        rng = CountingRandom(3)
        values = [costs.sample_descriptor_mib(rng) for _ in range(200)]
        floor = 0.1 * costs.descriptor_mib_mean
        assert min(values) == floor
        assert all(value >= floor for value in values)
        assert rng.calls["gauss"] == 200
