"""FarmResult derived metrics, the delay log and the control-plane
message types."""

import dataclasses
import pickle

import pytest

from repro.deploy.messages import (
    CreateVmCall,
    MigrationOrder,
    MigrationType,
    StatsReport,
)
from repro.energy import EnergyReport
from repro.errors import ConfigError
from repro.farm.metrics import DelayLog, DelaySample, FarmResult


def make_result(**kwargs):
    defaults = dict(
        policy_name="FulltoPartial", day_type="weekday", seed=0,
        horizon_s=86400.0,
    )
    defaults.update(kwargs)
    return FarmResult(**defaults)


class TestFarmResultDerived:
    def test_savings_requires_energy(self):
        with pytest.raises(ConfigError):
            _ = make_result().savings_fraction

    def test_savings_delegates_to_report(self):
        result = make_result()
        result.energy = EnergyReport(managed_joules=60.0, baseline_joules=100.0)
        assert result.savings_fraction == pytest.approx(0.4)

    def test_peak_and_min_on_empty_series(self):
        result = make_result()
        assert result.peak_active_vms == 0
        assert result.min_powered_hosts == 0

    def test_peak_and_min_with_data(self):
        result = make_result()
        result.active_vms = [3, 9, 1]
        result.powered_hosts = [5, 2, 7]
        assert result.peak_active_vms == 9
        assert result.min_powered_hosts == 2

    def test_zero_delay_fraction_empty_is_one(self):
        assert make_result().zero_delay_fraction() == 1.0

    def test_zero_delay_fraction_counts_exact_zeros(self):
        result = make_result()
        result.delays.record(0.0, 1, 0.0, "already_full")
        result.delays.record(1.0, 2, 3.7, "convert_in_place")
        assert result.zero_delay_fraction() == pytest.approx(0.5)
        assert result.delay_values() == [0.0, 3.7]

    def test_mean_home_sleep_fraction(self):
        result = make_result()
        result.home_sleep_s = {0: 43200.0, 1: 0.0}
        assert result.mean_home_sleep_fraction() == pytest.approx(0.25)

    def test_mean_home_sleep_empty(self):
        assert make_result().mean_home_sleep_fraction() == 0.0


SAMPLES = [
    DelaySample(0.0, 3, 0.0, "already_full"),
    DelaySample(150.25, 0, 3.7, "convert_in_place"),
    DelaySample(86399.9, 7, 0.1 + 0.2, "wake_home_return_all"),
]


def log_of(samples):
    log = DelayLog()
    for sample in samples:
        log.record(sample.time_s, sample.vm_id, sample.delay_s, sample.action)
    return log


def bits(samples):
    return [
        (s.time_s.hex(), s.vm_id, s.delay_s.hex(), s.action) for s in samples
    ]


class TestDelayLog:
    def test_record_then_iterate_gives_the_rows_back(self):
        assert list(log_of(SAMPLES)) == SAMPLES
        assert list(DelayLog()) == []

    def test_len(self):
        assert len(DelayLog()) == 0
        assert len(log_of(SAMPLES)) == 3

    def test_equality(self):
        assert log_of(SAMPLES) == log_of(SAMPLES)
        assert DelayLog() == DelayLog()
        assert log_of(SAMPLES) != log_of(SAMPLES[:2])
        assert log_of(SAMPLES) != SAMPLES  # rows are not a log

    @pytest.mark.parametrize("column,value", [
        ("time_s", 150.5),
        ("vm_id", 4),
        ("delay_s", 3.75),
        ("action", "rehome"),
    ])
    def test_logs_differing_in_one_column_are_unequal(self, column, value):
        changed = list(SAMPLES)
        changed[1] = dataclasses.replace(SAMPLES[1], **{column: value})
        assert log_of(changed) != log_of(SAMPLES)

    @pytest.mark.parametrize(
        "protocol", range(2, pickle.HIGHEST_PROTOCOL + 1)
    )
    def test_pickle_round_trip_is_bit_exact(self, protocol):
        log = log_of(SAMPLES)
        clone = pickle.loads(pickle.dumps(log, protocol))
        assert clone == log
        assert bits(clone) == bits(SAMPLES)

    def test_extend_renames_exactly(self):
        merged = log_of(SAMPLES[:1])
        shard = log_of(SAMPLES)
        # Local VM i becomes vm_ids[i]; the table is not monotone.
        vm_ids = (40, 41, 42, 10, 11, 12, 20, 21)
        merged.extend(shard, vm_ids)
        renamed = [
            dataclasses.replace(sample, vm_id=vm_ids[sample.vm_id])
            for sample in SAMPLES
        ]
        assert bits(merged) == bits(SAMPLES[:1] + renamed)
        assert [s.vm_id for s in merged] == [3, 10, 40, 21]
        assert list(shard) == SAMPLES  # the source log is untouched


class TestMessageValidation:
    def test_create_call_needs_path(self):
        with pytest.raises(ConfigError):
            CreateVmCall("")

    def test_partial_order_needs_working_set(self):
        with pytest.raises(ConfigError):
            MigrationOrder(1, MigrationType.PARTIAL, destination=2)
        MigrationOrder(1, MigrationType.PARTIAL, 2, working_set_mib=100.0)

    def test_full_order_without_working_set(self):
        order = MigrationOrder(1, MigrationType.FULL, destination=2)
        assert order.working_set_mib is None

    def test_stats_report_utilization(self):
        report = StatsReport(
            host_id=0, time_s=0.0, memory_used_mib=50.0,
            memory_capacity_mib=200.0, cpu_utilization=0.1,
            io_utilization=0.0,
        )
        assert report.memory_utilization == pytest.approx(0.25)

    def test_stats_report_validation(self):
        with pytest.raises(ConfigError):
            StatsReport(0, 0.0, 1.0, 0.0, 0.1, 0.0)
        with pytest.raises(ConfigError):
            StatsReport(0, 0.0, 1.0, 10.0, 1.5, 0.0)
