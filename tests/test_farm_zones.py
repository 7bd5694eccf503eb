"""Zoned simulation: partition determinism, the 1-zone differential
battery, K-zone aggregation invariants, and the scale tiers.

The correctness anchor is byte-identity: a ``zones=1`` sharded run must
be indistinguishable — field for field, float for float — from the
unsharded :func:`repro.farm.simulate_day`, with the goldens
unregenerated.  For K > 1 the anchors are the aggregation invariants:
every VM in exactly one zone, per-zone energies summing *exactly* to
the aggregate report, and :func:`validate_simulation` holding on every
shard.
"""

import dataclasses
import math

import pytest

from repro.core import FULL_TO_PARTIAL, policy_by_name
from repro.errors import ConfigError, WorkerLostError
from repro.farm import (
    FarmConfig,
    FarmSimulation,
    GlobalController,
    SweepRunner,
    build_partition,
    simulate_day,
    simulate_zoned_day,
    validate_simulation,
    zone_run_specs,
)
from repro.farm import runner as runner_module
from repro.farm.runner import _ensemble_for
from repro.simulator.randomness import derive_seed
from repro.traces import DayType
from tests.test_farm_runner import _exit_worker, needs_fork


def small_config(**overrides):
    defaults = dict(home_hosts=6, consolidation_hosts=3, vms_per_host=4)
    defaults.update(overrides)
    return FarmConfig(**defaults)


def result_fingerprint(result):
    """Everything a figure consumes, exact to the last delay sample."""
    return (
        result.savings_fraction,
        result.counters,
        result.faults,
        result.delays,
        result.active_vms,
        result.powered_hosts,
    )


class TestPartition:
    def test_same_seed_same_partition(self):
        config = small_config(home_hosts=12, consolidation_hosts=3)
        assert build_partition(config, 3, 7) == build_partition(config, 3, 7)

    def test_different_seeds_shuffle_the_assignment(self):
        config = small_config(home_hosts=12, consolidation_hosts=3)
        first = build_partition(config, 3, 0)
        second = build_partition(config, 3, 1)
        assert first.home_host_ids != second.home_host_ids

    def test_assignment_uses_the_derived_substream(self):
        # Pinned indirectly: the shuffle consumes exactly the
        # "zones.assignment" substream of the master seed, so any two
        # calls with equal (config, zones, seed) agree and the master
        # streams (traces, faults, ...) never observe these draws.
        config = small_config(home_hosts=8, consolidation_hosts=2)
        partition = build_partition(config, 2, 5)
        assert partition.zone_seed(0) == derive_seed(5, "zone.0")
        assert partition.zone_seed(1) == derive_seed(5, "zone.1")

    def test_single_zone_is_the_identity_transform(self):
        config = small_config()
        partition = build_partition(config, 1, 42)
        assert partition.home_host_ids == (tuple(range(6)),)
        assert partition.consolidation_host_ids == (tuple(range(6, 9)),)
        assert partition.zone_seed(0) == 42  # the master seed, untouched

    def test_every_vm_in_exactly_one_zone(self):
        config = small_config(home_hosts=10, consolidation_hosts=4)
        for zones in (2, 3, 4):
            partition = build_partition(config, zones, 3)
            seen = []
            for zone in range(zones):
                seen.extend(partition.zone_vm_ids(zone))
            assert sorted(seen) == list(range(config.total_vms))
            assert len(seen) == len(set(seen))

    def test_chunks_are_balanced(self):
        config = small_config(home_hosts=10, consolidation_hosts=4)
        partition = build_partition(config, 4, 9)
        sizes = [len(ids) for ids in partition.home_host_ids]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_global_id_maps_roundtrip(self):
        config = small_config(home_hosts=9, consolidation_hosts=3)
        partition = build_partition(config, 3, 11)
        for zone in range(3):
            for local_vm, global_vm in enumerate(partition.zone_vm_ids(zone)):
                assert partition.global_vm_id(zone, local_vm) == global_vm
                assert partition.vm_zone(global_vm) == zone

    def test_zone_configs_inherit_everything_but_shape(self):
        config = small_config(memory_overcommit=1.5)
        partition = build_partition(config, 3, 0)
        zone_config = partition.zone_config(0, config)
        assert zone_config.home_hosts == 2
        assert zone_config.consolidation_hosts == 1
        assert zone_config.memory_overcommit == 1.5
        assert zone_config.traces == config.traces

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_partition(small_config(), 0, 0)
        with pytest.raises(ConfigError):
            # 3 non-empty zones need 3 consolidation hosts; 2 exist.
            build_partition(small_config(consolidation_hosts=2), 3, 0)
        with pytest.raises(ConfigError):
            GlobalController(
                small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
                budget_w=0.0,
            )

    @pytest.mark.parametrize("budget_w", [math.nan, math.inf], ids=str)
    def test_non_finite_budget_rejected(self, budget_w):
        with pytest.raises(ConfigError, match="finite"):
            GlobalController(
                small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
                zones=2, budget_w=budget_w,
            )


class TestSingleZoneDifferential:
    """zones=1 must be byte-identical to the unsharded simulator."""

    @pytest.mark.parametrize("policy_name", ["Default", "FulltoPartial"])
    def test_aggregate_equals_unsharded(self, policy_name):
        config = small_config()
        policy = policy_by_name(policy_name)
        reference = simulate_day(config, policy, DayType.WEEKDAY, seed=13)
        zoned = simulate_zoned_day(
            config, policy, DayType.WEEKDAY, zones=1, seed=13
        )
        aggregate = zoned.aggregate
        assert aggregate.energy == reference.energy
        assert aggregate.counters == reference.counters
        assert aggregate.faults == reference.faults
        assert aggregate.delays == reference.delays
        assert aggregate.active_vms == reference.active_vms
        assert aggregate.powered_hosts == reference.powered_hosts
        assert aggregate.powered_home_hosts == reference.powered_home_hosts
        assert (
            aggregate.powered_consolidation_hosts
            == reference.powered_consolidation_hosts
        )
        assert (
            aggregate.consolidation_ratio_samples
            == reference.consolidation_ratio_samples
        )
        assert aggregate.home_sleep_s == reference.home_sleep_s
        assert aggregate.traffic.as_dict() == reference.traffic.as_dict()
        assert aggregate.sample_times_s == reference.sample_times_s
        assert aggregate.seed == reference.seed
        assert aggregate.policy_name == reference.policy_name
        assert aggregate.day_type == reference.day_type
        assert aggregate.horizon_s == reference.horizon_s

    def test_under_fault_injection(self):
        from repro.faults import fault_profile_by_name

        config = small_config(faults=fault_profile_by_name("heavy"))
        reference = simulate_day(
            config, FULL_TO_PARTIAL, DayType.WEEKDAY, seed=2
        )
        zoned = simulate_zoned_day(
            config, FULL_TO_PARTIAL, DayType.WEEKDAY, zones=1, seed=2
        )
        assert reference.faults.total_events > 0, "vacuous fault test"
        assert result_fingerprint(zoned.aggregate) == result_fingerprint(
            reference
        )


class TestZoneAggregation:
    @pytest.fixture(scope="class")
    def zoned(self):
        return simulate_zoned_day(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
            zones=3, seed=5,
        )

    def test_energy_sums_exactly(self, zoned):
        # Exact float equality, not approx: the aggregate is defined as
        # the sum of the shards, in zone order.
        assert sum(zoned.zone_managed_joules()) == (
            zoned.aggregate.energy.managed_joules
        )
        assert sum(
            r.energy.baseline_joules for r in zoned.zone_results if r
        ) == zoned.aggregate.energy.baseline_joules

    def test_counters_and_faults_are_fieldwise_sums(self, zoned):
        import dataclasses

        results = [r for r in zoned.zone_results if r is not None]
        for field in dataclasses.fields(zoned.aggregate.counters):
            assert getattr(zoned.aggregate.counters, field.name) == sum(
                getattr(r.counters, field.name) for r in results
            )
        for field in dataclasses.fields(zoned.aggregate.faults):
            assert getattr(zoned.aggregate.faults, field.name) == sum(
                getattr(r.faults, field.name) for r in results
            )

    def test_time_series_are_elementwise_sums(self, zoned):
        results = [r for r in zoned.zone_results if r is not None]
        for index in range(len(zoned.aggregate.active_vms)):
            assert zoned.aggregate.active_vms[index] == sum(
                r.active_vms[index] for r in results
            )
            assert zoned.aggregate.powered_hosts[index] == sum(
                r.powered_hosts[index] for r in results
            )

    def test_traffic_merges(self, zoned):
        results = [r for r in zoned.zone_results if r is not None]
        merged = {}
        for result in results:
            for key, value in result.traffic.as_dict().items():
                merged[key] = merged.get(key, 0.0) + value
        assert zoned.aggregate.traffic.as_dict() == pytest.approx(merged)

    def test_delays_remap_to_global_vm_ids(self, zoned):
        # Exact: each shard's rows in zone order, each VM renamed by
        # global_vm_id, so a remap that permuted VMs within a zone fails.
        partition = zoned.partition
        expected = [
            dataclasses.replace(
                sample, vm_id=partition.global_vm_id(zone, sample.vm_id)
            )
            for zone, result in enumerate(zoned.zone_results)
            if result is not None
            for sample in result.delays
        ]
        assert expected
        assert list(zoned.aggregate.delays) == expected

    def test_home_sleep_keys_are_global_host_ids(self, zoned):
        assert set(zoned.aggregate.home_sleep_s) == set(range(6))

    def test_validate_simulation_holds_per_shard(self):
        config = small_config()
        partition = build_partition(config, 3, 5)
        for _zone, spec in zone_run_specs(
            partition, config, FULL_TO_PARTIAL, DayType.WEEKDAY
        ):
            ensemble, _cached = _ensemble_for(spec)
            shard = FarmSimulation(
                spec.config, spec.policy, ensemble, seed=spec.seed
            )
            shard.run()
            validate_simulation(shard)

    def test_backend_equivalence(self, zoned):
        parallel = simulate_zoned_day(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
            zones=3, seed=5,
            runner=SweepRunner(backend="process", workers=2),
        )
        assert result_fingerprint(parallel.aggregate) == result_fingerprint(
            zoned.aggregate
        )
        assert parallel.zone_managed_joules() == zoned.zone_managed_joules()


class TestEdgeCases:
    def test_empty_zones_simulate_nothing(self):
        # 6 zones over 4 home hosts: two zones stay empty.
        config = FarmConfig(home_hosts=4, consolidation_hosts=6,
                            vms_per_host=4)
        zoned = simulate_zoned_day(
            config, FULL_TO_PARTIAL, DayType.WEEKDAY, zones=6, seed=1
        )
        assert len(zoned.partition.nonempty_zones) == 4
        assert zoned.zone_results.count(None) == 2
        assert sum(zoned.zone_managed_joules()) == (
            zoned.aggregate.energy.managed_joules
        )
        for zone, budget in enumerate(zoned.budgets):
            if zoned.partition.is_empty(zone):
                assert budget.mean_power_w == 0.0
                assert budget.peak_demand_w == 0.0

    @needs_fork
    def test_dead_worker_loses_the_zones_by_name(self, monkeypatch, capfd):
        monkeypatch.setattr(runner_module, "execute_run", _exit_worker)
        runner = SweepRunner(backend="process", workers=2)
        with pytest.raises(WorkerLostError) as caught:
            simulate_zoned_day(
                small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
                zones=2, seed=5, runner=runner,
            )
        assert str(caught.value) == (
            "a pool worker died; 2 run(s) lost: zone-0, zone-1"
        )
        assert runner.summaries == []
        assert "Traceback" not in capfd.readouterr().err

    def test_zone_count_exceeding_vm_count(self):
        config = FarmConfig(home_hosts=3, consolidation_hosts=3,
                            vms_per_host=1)  # 3 VMs
        zoned = simulate_zoned_day(
            config, FULL_TO_PARTIAL, DayType.WEEKDAY, zones=5, seed=1
        )
        assert len(zoned.partition.nonempty_zones) == 3
        seen = []
        for zone in range(5):
            seen.extend(zoned.partition.zone_vm_ids(zone))
        assert sorted(seen) == [0, 1, 2]

    def test_budget_shares_are_proportional_and_sum_to_budget(self):
        config = small_config()
        zoned = simulate_zoned_day(
            config, FULL_TO_PARTIAL, DayType.WEEKDAY, zones=3, seed=1,
            budget_w=1200.0,
        )
        shares = [budget.share_w for budget in zoned.budgets]
        assert sum(shares) == pytest.approx(1200.0)
        demands = [budget.peak_demand_w for budget in zoned.budgets]
        for share, demand in zip(shares, demands):
            assert share == pytest.approx(
                1200.0 * demand / sum(demands)
            )

    def test_unbudgeted_shares_default_to_peak_demand(self):
        zoned = simulate_zoned_day(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
            zones=2, seed=1,
        )
        for budget in zoned.budgets:
            assert budget.share_w == budget.peak_demand_w


class TestZoneTracing:
    def test_coordinator_events_are_zone_tagged(self):
        from repro.obs import CAT_ZONE, RecordingTracer

        tracer = RecordingTracer()
        zoned = simulate_zoned_day(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
            zones=2, seed=3, tracer=tracer,
        )
        by_name = {}
        for event in tracer.events:
            by_name.setdefault(event.name, []).append(event)
            assert event.category == CAT_ZONE
        assert [e.args["zone"] for e in by_name["zone.partition"]] == [0, 1]
        assert len(by_name["zone.shard_done"]) == 2
        (aggregate_event,) = by_name["zone.aggregate"]
        assert aggregate_event.args["zones"] == 2
        assert aggregate_event.args["savings_fraction"] == (
            zoned.aggregate.savings_fraction
        )

    def test_tracing_does_not_perturb_results(self):
        from repro.obs import RecordingTracer

        untraced = simulate_zoned_day(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
            zones=2, seed=3,
        )
        traced = simulate_zoned_day(
            small_config(), FULL_TO_PARTIAL, DayType.WEEKDAY,
            zones=2, seed=3, tracer=RecordingTracer(),
        )
        assert result_fingerprint(traced.aggregate) == result_fingerprint(
            untraced.aggregate
        )


@pytest.mark.slow
class TestScaleTwentyThousand:
    """The acceptance shape: 20k VMs over four zones."""

    def test_20k_vm_four_zone_run(self):
        config = FarmConfig(home_hosts=668, consolidation_hosts=16,
                            vms_per_host=30)  # 20,040 VMs
        zoned = simulate_zoned_day(
            config, policy_by_name("Default"), DayType.WEEKDAY,
            zones=4, seed=0,
        )
        assert config.total_vms == 20040
        # Per-zone energy sums exactly to the aggregate report.
        assert sum(zoned.zone_managed_joules()) == (
            zoned.aggregate.energy.managed_joules
        )
        seen = []
        for zone in range(4):
            seen.extend(zoned.partition.zone_vm_ids(zone))
        assert sorted(seen) == list(range(20040))
        assert len(zoned.aggregate.sample_times_s) == 288


@pytest.mark.fullscale
class TestScaleHundredThousand:
    """The 100k-VM tier, behind the ``fullscale`` marker (the default
    pytest invocation deselects it; opt in with ``-m fullscale``)."""

    def test_100k_vm_perfbench_case(self):
        import time

        from repro.perfbench import fullscale_cases, run_case

        (case,) = fullscale_cases()
        assert case.home_hosts * case.vms_per_host >= 100_000
        outcome = run_case(time.perf_counter, case)
        fingerprint = outcome.fingerprint
        assert fingerprint["zones"] == case.zones
        assert sum(fingerprint["zone_managed_joules"]) == (
            fingerprint["managed_joules"]
        )
        assert outcome.timing["best_s"] > 0.0
