"""Unit tests for :mod:`repro.faults` and its threading through layers."""

import dataclasses
import math

import pytest

from repro.cluster.host import Host, HostRole
from repro.cluster.power import PowerState
from repro.core import DEFAULT as DEFAULT_POLICY
from repro.energy.report import EnergyReport
from repro.errors import ConfigError, FaultInjectionError, PowerStateError
from repro.farm import FarmConfig, simulate_day
from repro.faults import (
    CLEAN_WAKE,
    FAULT_PROFILE_NAMES,
    FAULT_PROFILES,
    FaultCounters,
    FaultInjector,
    FaultPlan,
    FaultProfile,
    WakeOutcome,
    backoff_delays_s,
    fault_profile_by_name,
)
from repro.simulator.randomness import RngStreams
from repro.traces import DayType


class TestFaultProfile:
    def test_default_is_null(self):
        assert FaultProfile().is_null
        assert FaultProfile.none().is_null

    def test_named_profiles_registered(self):
        assert set(FAULT_PROFILE_NAMES) == set(FAULT_PROFILES)
        for name in FAULT_PROFILE_NAMES:
            assert fault_profile_by_name(name).name == name

    def test_light_and_heavy_are_not_null(self):
        assert not FaultProfile.light().is_null
        assert not FaultProfile.heavy().is_null

    def test_unknown_profile_name_rejected(self):
        with pytest.raises(ConfigError):
            fault_profile_by_name("catastrophic")

    @pytest.mark.parametrize("field_name", [
        "migration_abort_prob", "wake_failure_prob",
        "memserver_crash_prob", "page_timeout_prob",
    ])
    def test_probabilities_validated(self, field_name):
        with pytest.raises(ConfigError):
            FaultProfile(**{field_name: 1.5})
        with pytest.raises(ConfigError):
            FaultProfile(**{field_name: -0.1})

    def test_progress_window_validated(self):
        with pytest.raises(ConfigError):
            FaultProfile(abort_progress_min=0.0)
        with pytest.raises(ConfigError):
            FaultProfile(abort_progress_min=0.9, abort_progress_max=0.5)
        with pytest.raises(ConfigError):
            FaultProfile(abort_progress_max=1.0)

    def test_semantics_knobs_validated(self):
        with pytest.raises(ConfigError):
            FaultProfile(wake_retry_cap=-1)
        with pytest.raises(ConfigError):
            FaultProfile(wake_backoff_base_s=0.0)
        with pytest.raises(ConfigError):
            FaultProfile(page_timeout_retries_max=0)
        with pytest.raises(ConfigError):
            FaultProfile(page_retry_mib=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
    @pytest.mark.parametrize(
        "field_name", ["wake_backoff_base_s", "page_retry_mib"]
    )
    def test_non_finite_knobs_rejected(self, field_name, value):
        with pytest.raises(ConfigError, match="finite"):
            FaultProfile(**{field_name: value})

    def test_scaled_multiplies_rates_and_caps_at_one(self):
        heavy = FaultProfile.heavy()
        doubled = heavy.scaled(10.0)
        assert doubled.migration_abort_prob == 1.0
        assert doubled.wake_retry_cap == heavy.wake_retry_cap
        assert doubled.wake_backoff_base_s == heavy.wake_backoff_base_s

    def test_scaled_to_zero_is_null(self):
        assert FaultProfile.heavy().scaled(0.0).is_null

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ConfigError):
            FaultProfile.light().scaled(-1.0)


class TestBackoff:
    def test_exponential_schedule(self):
        assert backoff_delays_s(4.0, 3) == [4.0, 8.0, 16.0]

    def test_zero_attempts(self):
        assert backoff_delays_s(1.0, 0) == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            backoff_delays_s(0.0, 1)
        with pytest.raises(ConfigError):
            backoff_delays_s(1.0, -1)


class TestWakeOutcome:
    def test_clean_constant(self):
        assert CLEAN_WAKE.is_clean
        assert not CLEAN_WAKE.gave_up

    def test_failed_outcome_is_not_clean(self):
        assert not WakeOutcome(failed_attempts=1, gave_up=False).is_clean

    def test_negative_attempts_rejected(self):
        with pytest.raises(ConfigError):
            WakeOutcome(failed_attempts=-1, gave_up=False)


class TestFaultCounters:
    def test_totals(self):
        counters = FaultCounters(
            migration_aborts=2, migration_retries=1, wake_retries=3,
            wake_give_ups=1, memserver_crashes=1, page_fetch_timeouts=4,
        )
        assert counters.total_events == 2 + 3 + 1 + 1 + 4
        assert counters.total_retries == 1 + 3 + 4
        assert counters.total_rollbacks == 2

    def test_str_shows_only_nonzero(self):
        assert str(FaultCounters()) == "FaultCounters(clean)"
        text = str(FaultCounters(wake_retries=2))
        assert "wake_retries=2" in text
        assert "migration_aborts" not in text

    def test_as_dict_covers_every_field(self):
        counters = FaultCounters()
        assert set(counters.as_dict()) == {
            f.name for f in dataclasses.fields(FaultCounters)
        }


class TestFaultPlan:
    def test_null_profile_builds_empty_plan_without_draws(self):
        rng = RngStreams(1).get("faults.plan")
        state_before = rng.getstate()
        plan = FaultPlan.build(FaultProfile.none(), [0, 1, 2], 86400.0, rng)
        assert plan.is_empty
        assert rng.getstate() == state_before

    def test_certain_crash_hits_every_host(self):
        profile = FaultProfile(memserver_crash_prob=1.0)
        rng = RngStreams(2).get("faults.plan")
        plan = FaultPlan.build(profile, [0, 1, 2], 86400.0, rng)
        assert sorted(plan.crash_schedule()) == [0, 1, 2]
        assert all(0.0 <= t <= 86400.0 for t in plan.crash_schedule().values())

    def test_build_is_deterministic(self):
        profile = FaultProfile(memserver_crash_prob=0.5)
        plans = [
            FaultPlan.build(profile, list(range(10)), 86400.0,
                            RngStreams(7).get("faults.plan"))
            for _ in range(2)
        ]
        assert plans[0] == plans[1]

    def test_duplicate_host_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(memserver_crashes=((1, 5.0), (1, 9.0)))

    def test_negative_crash_time_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(memserver_crashes=((1, -5.0),))

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.build(FaultProfile.light(), [0], 0.0,
                            RngStreams(0).get("faults.plan"))


class TestFaultInjector:
    def test_null_profile_never_draws(self):
        streams = RngStreams(3)
        injector = FaultInjector(FaultProfile.none(), streams)
        states = [streams.get(name).getstate() for name in
                  ("faults.migration", "faults.wake", "faults.pages")]
        assert injector.migration_abort() is None
        assert injector.wake_outcome() is CLEAN_WAKE
        assert injector.page_timeouts() == 0
        assert states == [streams.get(name).getstate() for name in
                          ("faults.migration", "faults.wake", "faults.pages")]

    def test_certain_abort_yields_progress_in_window(self):
        profile = FaultProfile(
            migration_abort_prob=1.0,
            abort_progress_min=0.2, abort_progress_max=0.4,
        )
        injector = FaultInjector(profile, RngStreams(4))
        for _ in range(50):
            fraction = injector.migration_abort()
            assert fraction is not None
            assert 0.2 <= fraction <= 0.4

    def test_certain_wake_failure_always_gives_up_at_cap(self):
        profile = FaultProfile(wake_failure_prob=1.0, wake_retry_cap=2)
        injector = FaultInjector(profile, RngStreams(5))
        outcome = injector.wake_outcome()
        assert outcome.gave_up
        assert outcome.failed_attempts == 3  # initial + 2 retries

    def test_wake_failures_bounded_without_giving_up(self):
        profile = FaultProfile(wake_failure_prob=0.5, wake_retry_cap=3)
        injector = FaultInjector(profile, RngStreams(6))
        for _ in range(200):
            outcome = injector.wake_outcome()
            if outcome.gave_up:
                assert outcome.failed_attempts == 4
            else:
                assert 0 <= outcome.failed_attempts <= 3

    def test_page_timeouts_capped(self):
        profile = FaultProfile(page_timeout_prob=1.0,
                               page_timeout_retries_max=3)
        injector = FaultInjector(profile, RngStreams(7))
        assert injector.page_timeouts() == 3

    def test_streams_are_independent_per_fault_class(self):
        """Draws on one class never perturb another class's sequence."""
        profile = FaultProfile.heavy()
        solo = FaultInjector(profile, RngStreams(8))
        solo_wakes = [solo.wake_outcome() for _ in range(20)]
        mixed = FaultInjector(profile, RngStreams(8))
        mixed_wakes = []
        for _ in range(20):
            mixed.migration_abort()
            mixed.page_timeouts()
            mixed_wakes.append(mixed.wake_outcome())
        assert solo_wakes == mixed_wakes


class TestHostFaultSupport:
    def make_host(self):
        return Host(0, HostRole.COMPUTE, 1024.0)

    def test_fail_resume_round_trip(self):
        host = self.make_host()
        host.begin_suspend()
        host.complete_suspend()
        host.begin_resume()
        host.fail_resume()
        assert host.power_state is PowerState.SLEEPING
        host.begin_resume()
        host.complete_resume()
        assert host.is_powered

    def test_fail_resume_illegal_when_powered(self):
        with pytest.raises(PowerStateError):
            self.make_host().fail_resume()

    def test_memory_server_failure_flags(self):
        host = self.make_host()
        assert not host.memory_server_failed
        host.fail_memory_server()
        assert host.memory_server_failed
        host.repair_memory_server()
        host.repair_memory_server()  # idempotent
        assert not host.memory_server_failed

    def test_cannot_fail_absent_memory_server(self):
        host = Host(1, HostRole.CONSOLIDATION, 1024.0,
                    memory_server_enabled=False)
        with pytest.raises(PowerStateError):
            host.fail_memory_server()


class TestEnergyReportFaultFields:
    def test_defaults_are_zero_and_str_is_unchanged(self):
        report = EnergyReport(managed_joules=100.0, baseline_joules=200.0)
        assert report.fault_events == 0
        assert "faults" not in str(report)

    def test_str_appends_fault_summary_when_nonzero(self):
        report = EnergyReport(
            managed_joules=100.0, baseline_joules=200.0,
            fault_events=5, fault_retries=3, fault_rollbacks=2,
        )
        assert "faults=5 retries=3 rollbacks=2" in str(report)

    def test_negative_counters_rejected(self):
        with pytest.raises(ConfigError):
            EnergyReport(managed_joules=1.0, baseline_joules=2.0,
                         fault_events=-1)


class TestConfigIntegration:
    def test_default_config_has_null_profile(self):
        assert FarmConfig().faults.is_null

    def test_faulty_run_reports_nonzero_counters(self):
        config = FarmConfig(
            home_hosts=4, consolidation_hosts=2, vms_per_host=4,
            faults=FaultProfile.heavy(),
        )
        result = simulate_day(config, DEFAULT_POLICY, DayType.WEEKDAY, seed=3)
        assert result.faults.total_events > 0
        assert result.energy.fault_events == result.faults.total_events
        assert result.energy.fault_retries == result.faults.total_retries
        assert result.energy.fault_rollbacks == result.faults.total_rollbacks

    def test_faulty_run_is_deterministic(self):
        config = FarmConfig(
            home_hosts=4, consolidation_hosts=2, vms_per_host=4,
            faults=FaultProfile.heavy(),
        )
        first = simulate_day(config, DEFAULT_POLICY, DayType.WEEKDAY, seed=4)
        second = simulate_day(config, DEFAULT_POLICY, DayType.WEEKDAY, seed=4)
        assert first.faults == second.faults
        assert first.savings_fraction == second.savings_fraction
        assert first.delays == second.delays
