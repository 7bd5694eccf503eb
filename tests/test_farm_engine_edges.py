"""Edge cases in the farm engine's power-state and timing machinery,
and the migration commit's draws per stream."""

import pytest

from repro.cluster import PowerState
from repro.core import FULL_TO_PARTIAL, ONLY_PARTIAL
from repro.farm import FarmConfig, FarmSimulation
from repro.faults import FaultProfile
from repro.migration.traffic import TrafficCategory
from repro.traces import DayType, TraceEnsemble, UserDayTrace, generate_ensemble
from repro.units import INTERVALS_PER_DAY
from repro.vm import WorkingSetSampler
from repro.vm.state import Residency


def bits(active_intervals):
    out = [0] * INTERVALS_PER_DAY
    for index in active_intervals:
        out[index] = 1
    return out


def ensemble(per_user):
    traces = tuple(
        UserDayTrace.from_bits(user_id, DayType.WEEKDAY, user_bits)
        for user_id, user_bits in enumerate(per_user)
    )
    return TraceEnsemble(DayType.WEEKDAY, traces)


def tiny(**overrides):
    defaults = dict(
        home_hosts=2, consolidation_hosts=1, vms_per_host=2,
        working_sets=WorkingSetSampler(std_mib=0.0),
    )
    defaults.update(overrides)
    return FarmConfig(**defaults)


class TestWakeDuringSuspend:
    def test_activation_just_after_vacate_bounces_the_home(self):
        # User 0 idles exactly one interval, activating again while its
        # home is still suspending (vacate at t=300, suspend ~t=310,
        # activation lands within interval 1).  The consolidation host
        # is sized so the conversion cannot fit, forcing a home wake
        # that has to ride through the suspend transition.
        config = tiny(
            home_hosts=14,
            host_capacity_mib=2 * 4096.0 + 100.0,
            activation_jitter_s=30.0,
        )
        users = [bits(range(1, 4))] + [[0] * INTERVALS_PER_DAY] * 27
        simulation = FarmSimulation(config, FULL_TO_PARTIAL,
                                    ensemble(users), seed=4)
        result = simulation.run()
        simulation.cluster.check_invariants()
        wake_samples = [
            d for d in result.delays
            if d.vm_id == 0 and d.action == "wake_home_return_all"
        ]
        assert wake_samples
        # The delay covers at least resume + reintegration; if it caught
        # the host mid-suspend it also waited the suspend out.
        assert wake_samples[0].delay_s >= 3.7

    def test_no_host_ends_the_day_in_transition_with_vms(self):
        config = tiny()
        users = [bits(range(100, 150)) for _ in range(4)]
        simulation = FarmSimulation(config, FULL_TO_PARTIAL,
                                    ensemble(users), seed=1)
        simulation.run()
        for host in simulation.cluster:
            if host.vm_count > 0:
                assert host.power_state in (
                    PowerState.POWERED, PowerState.RESUMING
                )


class TestOnlyPartialReturnPath:
    def test_activation_always_reintegrates(self):
        config = tiny()
        users = [bits(range(120, 140))] + [[0] * INTERVALS_PER_DAY] * 3
        simulation = FarmSimulation(config, ONLY_PARTIAL,
                                    ensemble(users), seed=2)
        result = simulation.run()
        samples = [d for d in result.delays if d.vm_id == 0 and d.delay_s > 0]
        assert samples
        assert samples[0].action == "wake_home_return_all"
        # Both of home 0's VMs came back with it.
        assert result.counters.reintegrations >= 2
        vm = simulation.vms[0]
        # After the active block the planner re-consolidates.
        assert vm.residency is Residency.PARTIAL


class TestPlanningInterval:
    def test_sparser_planning_still_consolidates(self):
        config = tiny(planning_interval_s=900.0)
        users = [[0] * INTERVALS_PER_DAY] * 4
        simulation = FarmSimulation(config, FULL_TO_PARTIAL,
                                    ensemble(users), seed=0)
        result = simulation.run()
        assert result.mean_home_sleep_fraction() > 0.9

    def test_sparser_planning_means_fewer_plans(self):
        users = [bits(range(i * 20, i * 20 + 10)) for i in range(4)]
        eager = FarmSimulation(
            tiny(), FULL_TO_PARTIAL, ensemble(users), seed=0
        ).run()
        sparse = FarmSimulation(
            tiny(planning_interval_s=1800.0), FULL_TO_PARTIAL,
            ensemble(users), seed=0,
        ).run()
        assert (
            sparse.counters.partial_migrations
            <= eager.counters.partial_migrations
        )


class TestDelayBookkeeping:
    def test_every_idle_to_active_transition_is_sampled(self):
        users = [bits(list(range(50, 60)) + list(range(200, 210)))]
        users += [[0] * INTERVALS_PER_DAY] * 3
        simulation = FarmSimulation(tiny(), FULL_TO_PARTIAL,
                                    ensemble(users), seed=0)
        result = simulation.run()
        samples = [d for d in result.delays if d.vm_id == 0]
        assert len(samples) == 2  # two activation edges

    def test_sample_times_fall_inside_their_interval(self):
        users = [bits(range(100, 110))] + [[0] * INTERVALS_PER_DAY] * 3
        simulation = FarmSimulation(tiny(), FULL_TO_PARTIAL,
                                    ensemble(users), seed=0)
        result = simulation.run()
        sample = [d for d in result.delays if d.vm_id == 0][0]
        assert 100 * 300.0 <= sample.time_s < 101 * 300.0


class TestActivationJitterBounds:
    def test_sub_second_jitter_runs_the_whole_day(self):
        # Regression: the jitter draw used to be uniform(1, jitter_max-1),
        # which inverts its bounds for any valid jitter_max < 2 and can
        # produce a negative delay that Simulator.schedule rejects with a
        # SimulationError mid-day.
        users = [
            bits(list(range(10, 20)) + list(range(40, 50)) + [70, 90, 120])
            for _ in range(4)
        ]
        config = tiny(activation_jitter_s=0.5)
        simulation = FarmSimulation(config, FULL_TO_PARTIAL,
                                    ensemble(users), seed=0)
        result = simulation.run()  # pre-fix: SimulationError
        assert result.delays

    def test_jitter_stays_within_the_configured_window(self):
        users = [bits(range(10, 20)) for _ in range(4)]
        config = tiny(activation_jitter_s=30.0)
        simulation = FarmSimulation(config, FULL_TO_PARTIAL,
                                    ensemble(users), seed=3)
        result = simulation.run()
        # Activation samples land within jitter_max of their interval
        # boundary (interval 10 starts at 3000 s).
        activation_times = [
            d.time_s for d in result.delays if 3000.0 <= d.time_s < 3300.0
        ]
        assert activation_times
        for time_s in activation_times:
            assert 3000.0 <= time_s <= 3000.0 + 30.0


class TestHorizonGarbageCollection:
    def test_stale_horizons_are_dropped_during_the_day(self):
        # Hosts migrate early in the day and then idle; their busy
        # horizons must not accumulate until the end of the day.
        users = [bits(range(2, 5)) for _ in range(4)]
        simulation = FarmSimulation(tiny(), FULL_TO_PARTIAL,
                                    ensemble(users), seed=0)
        simulation.run()
        # All activity ended hours before midnight, so every horizon has
        # passed the last interval's watermark and been collected.
        assert not simulation.scheduler._busy_until
        assert not simulation.scheduler._release_after
        assert not simulation._settles_at

    def test_collection_does_not_change_results(self, monkeypatch):
        users = [
            bits(list(range(5, 30)) + list(range(100, 130)))
            for _ in range(4)
        ]
        with_gc = FarmSimulation(tiny(), FULL_TO_PARTIAL,
                                 ensemble(users), seed=2).run()
        monkeypatch.setattr(
            FarmSimulation, "_collect_stale_horizons",
            lambda self, now: None,
        )
        without_gc = FarmSimulation(tiny(), FULL_TO_PARTIAL,
                                    ensemble(users), seed=2).run()
        assert with_gc.savings_fraction == without_gc.savings_fraction
        assert with_gc.counters == without_gc.counters
        assert with_gc.delays == without_gc.delays
        assert with_gc.powered_hosts == without_gc.powered_hosts


def commit_day(policy, faults=FaultProfile.none()):
    """A day on the 4+2x4 farm, where every migration kind commits."""
    config = FarmConfig(
        home_hosts=4, consolidation_hosts=2, vms_per_host=4, faults=faults
    )
    return FarmSimulation(
        config, policy,
        generate_ensemble(config.total_vms, DayType.WEEKDAY, seed=3),
        seed=1,
    )


class TestCommitDrawContract:
    """Each commit draws its abort (when that fault class is on), then
    its descriptor, then its upload or reintegration volume; a closed
    consolidation episode draws its demand-fault volume, then its page
    timeouts (when that class is on).  Pinned per stream here."""

    #: The traffic categories whose every ledger event is one sampled
    #: volume, hence one Gaussian on the ``traffic`` stream.
    SAMPLED = (
        TrafficCategory.PARTIAL_DESCRIPTOR,
        TrafficCategory.MEMORY_UPLOAD_SAS,
        TrafficCategory.REINTEGRATION,
        TrafficCategory.ON_DEMAND_PAGES,
    )

    @pytest.mark.parametrize("policy", [
        "OnlyPartial", "Default", "FulltoPartial", "NewHome",
        "GammaRobust@3",
    ])
    def test_one_traffic_gauss_per_sampled_volume(self, policy):
        simulation = commit_day(policy)
        traffic_rng = simulation.streams.get("traffic")
        gauss = traffic_rng.gauss
        calls = []

        def counted_gauss(mu, sigma):
            calls.append(mu)
            return gauss(mu, sigma)

        traffic_rng.gauss = counted_gauss
        traffic = simulation.run().traffic
        sampled = sum(traffic.events(category) for category in self.SAMPLED)
        assert len(calls) == sampled > 0

    @pytest.mark.parametrize("probability, drawn", [
        ("migration_abort_prob", "faults.migration"),
        ("page_timeout_prob", "faults.pages"),
    ])
    def test_a_fault_class_draws_only_its_own_stream(
        self, probability, drawn
    ):
        simulation = commit_day(
            "Default", FaultProfile(name="one-class", **{probability: 0.2})
        )
        names = ("faults.migration", "faults.pages", "faults.wake")
        before = {
            name: simulation.streams.get(name).getstate() for name in names
        }
        simulation.run()
        for name in names:
            moved = simulation.streams.get(name).getstate() != before[name]
            assert moved == (name == drawn), name
