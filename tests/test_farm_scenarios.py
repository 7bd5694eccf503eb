"""End-to-end farm scenarios on tiny, hand-written trace ensembles.

Each scenario builds a 2-home/1-consolidation cluster with four VMs and
scripts each user's day interval by interval, so every assertion pins a
specific manager behaviour.
"""

import pytest

from repro.cluster import HostRole
from repro.core import DEFAULT, FULL_TO_PARTIAL, NEW_HOME, ONLY_PARTIAL
from repro.farm import DelayLog, FarmConfig, FarmSimulation
from repro.traces import DayType, TraceEnsemble, UserDayTrace
from repro.units import INTERVALS_PER_DAY
from repro.vm.state import Residency


def tiny_config(**overrides):
    defaults = dict(home_hosts=2, consolidation_hosts=1, vms_per_host=2)
    defaults.update(overrides)
    return FarmConfig(**defaults)


def ensemble_from_bits(per_user_bits):
    traces = []
    for user_id, bits in enumerate(per_user_bits):
        padded = list(bits) + [0] * (INTERVALS_PER_DAY - len(bits))
        traces.append(UserDayTrace.from_bits(user_id, DayType.WEEKDAY, padded))
    return TraceEnsemble(DayType.WEEKDAY, tuple(traces))


def active_between(start_interval, end_interval):
    bits = [0] * INTERVALS_PER_DAY
    for index in range(start_interval, end_interval):
        bits[index] = 1
    return bits


def run(config, policy, ensemble, seed=0):
    simulation = FarmSimulation(config, policy, ensemble, seed=seed)
    result = simulation.run()
    simulation.cluster.check_invariants()
    return simulation, result


class TestAllIdleDay:
    def test_homes_sleep_nearly_all_day(self):
        ensemble = ensemble_from_bits([[], [], [], []])
        simulation, result = run(tiny_config(), FULL_TO_PARTIAL, ensemble)
        assert result.mean_home_sleep_fraction() > 0.95
        # Every VM ends the day consolidated as a partial VM.
        for vm in simulation.vms.values():
            assert vm.residency is Residency.PARTIAL
        # Both home hosts serve their VMs' images.
        for host in simulation.cluster.home_hosts:
            assert host.served_image_count == 2

    def test_two_home_cluster_cannot_profit(self):
        # Density is the whole game: with only two home hosts, the one
        # powered consolidation host eats everything the sleeping homes
        # save, so savings hover at zero.
        ensemble = ensemble_from_bits([[], [], [], []])
        _sim, result = run(tiny_config(), FULL_TO_PARTIAL, ensemble)
        assert -0.05 < result.savings_fraction < 0.10

    def test_ten_home_cluster_profits_handsomely(self):
        ensemble = ensemble_from_bits([[]] * 20)
        config = tiny_config(home_hosts=10)
        _sim, result = run(config, FULL_TO_PARTIAL, ensemble)
        profile = config.host_power
        baseline_w = 10 * profile.powered_watts(full_vms=2)
        floor_w = 10 * (profile.sleep_w + 42.2) + profile.powered_watts()
        ceiling = 1.0 - floor_w / baseline_w
        assert ceiling - 0.10 < result.savings_fraction < ceiling + 0.01

    def test_no_transition_delays_when_nobody_activates(self):
        ensemble = ensemble_from_bits([[], [], [], []])
        _sim, result = run(tiny_config(), FULL_TO_PARTIAL, ensemble)
        assert result.delays == DelayLog()

    def test_min_powered_hosts_is_one(self):
        ensemble = ensemble_from_bits([[], [], [], []])
        _sim, result = run(tiny_config(), FULL_TO_PARTIAL, ensemble)
        assert result.min_powered_hosts == 1


class TestAlwaysActiveVm:
    def test_hybrid_policy_moves_the_active_vm_and_sleeps_its_home(self):
        ensemble = ensemble_from_bits([
            active_between(0, INTERVALS_PER_DAY), [], [], [],
        ])
        simulation, result = run(tiny_config(), FULL_TO_PARTIAL, ensemble)
        vm = simulation.vms[0]
        consolidation_ids = {
            h.host_id for h in simulation.cluster.consolidation_hosts
        }
        assert vm.residency is Residency.FULL
        assert vm.host_id in consolidation_ids
        assert result.mean_home_sleep_fraction() > 0.9

    def test_only_partial_keeps_the_active_home_awake(self):
        ensemble = ensemble_from_bits([
            active_between(0, INTERVALS_PER_DAY), [], [], [],
        ])
        simulation, result = run(tiny_config(), ONLY_PARTIAL, ensemble)
        home = simulation.cluster.host(0)
        assert home.is_powered
        assert home.has_vm(0)
        # The all-idle home still sleeps.
        sleep_by_host = result.home_sleep_s
        assert sleep_by_host[1] > 0.9 * 86400.0
        assert sleep_by_host[0] == 0.0


class TestMidDayActivation:
    def _mid_day_ensemble(self):
        # User 0 idles all morning, works 10:00-12:00, idles after.
        return ensemble_from_bits([
            active_between(120, 144), [], [], [],
        ])

    def test_activation_delay_recorded(self):
        _sim, result = run(tiny_config(), FULL_TO_PARTIAL,
                           self._mid_day_ensemble())
        activations = [d for d in result.delays if d.vm_id == 0]
        assert len(activations) == 1
        sample = activations[0]
        assert 120 * 300.0 <= sample.time_s < 121 * 300.0
        assert sample.delay_s > 0.0  # it was consolidated, so not free

    def test_conversion_in_place_when_space_allows(self):
        _sim, result = run(tiny_config(), FULL_TO_PARTIAL,
                           self._mid_day_ensemble())
        sample = [d for d in result.delays if d.vm_id == 0][0]
        assert sample.action == "convert_in_place"
        assert result.counters.conversions_in_place == 1

    def test_full_to_partial_reconsolidates_after_idling(self):
        simulation, result = run(tiny_config(), FULL_TO_PARTIAL,
                                 self._mid_day_ensemble())
        vm = simulation.vms[0]
        # After the active block, the exchange path returns the VM home
        # and re-partializes it.
        assert vm.residency is Residency.PARTIAL
        assert vm.home_id == vm.origin_home_id == 0
        assert result.counters.exchanges >= 1

    def test_default_policy_leaves_converted_vm_full(self):
        simulation, _result = run(tiny_config(), DEFAULT,
                                  self._mid_day_ensemble())
        vm = simulation.vms[0]
        assert vm.residency is Residency.FULL
        consolidation_ids = {
            h.host_id for h in simulation.cluster.consolidation_hosts
        }
        assert vm.host_id in consolidation_ids


class TestCapacityExhaustion:
    def test_wake_home_and_return_all(self):
        # The consolidation host can take all 28 partial working sets
        # (28 x 165.63 MiB) but cannot absorb a ~3.9 GiB conversion:
        # activating VM 0 must wake home 0 and pull its VMs back.
        from repro.vm import WorkingSetSampler

        config = tiny_config(
            home_hosts=14,
            host_capacity_mib=2 * 4096.0 + 100.0,
            working_sets=WorkingSetSampler(std_mib=0.0),
        )
        ensemble = ensemble_from_bits(
            [active_between(12, 24)] + [[]] * 27
        )
        simulation, result = run(config, FULL_TO_PARTIAL, ensemble)
        sample = [d for d in result.delays if d.vm_id == 0][0]
        assert sample.action == "wake_home_return_all"
        assert result.counters.reintegrations >= 2
        assert result.counters.home_wakeups >= 1
        # The reintegration latency includes the home's resume.
        assert sample.delay_s >= 3.7

    def test_new_home_policy_rehomes_instead(self):
        config = tiny_config(
            home_hosts=3, vms_per_host=2,
            host_capacity_mib=2 * 4096.0 + 100.0,
        )
        # Users 0 and 2 (homes 0 and 1) are active early so one home
        # stays powered; user 4 activates later when the consolidation
        # host is too full for an in-place conversion.
        ensemble = ensemble_from_bits([
            active_between(0, INTERVALS_PER_DAY), [],
            active_between(0, INTERVALS_PER_DAY), [],
            active_between(100, 124), [],
        ])
        simulation, result = run(config, NEW_HOME, ensemble)
        sample = [d for d in result.delays
                  if d.vm_id == 4 and d.delay_s > 0.0]
        if sample:  # rehoming must at least be attempted before waking
            assert sample[0].action in ("migrate_new_home",
                                        "wake_home_return_all")


class TestEnergyCrossChecks:
    def test_accountant_and_tracker_agree(self):
        ensemble = ensemble_from_bits([
            active_between(96, 204), [], [], [],
        ])
        simulation, result = run(tiny_config(), FULL_TO_PARTIAL, ensemble)
        profile = simulation.config.host_power
        ms_w = simulation.config.memory_server.total_w
        duration = simulation.ledger.state_duration
        for host in simulation.cluster:
            sleep_s = duration(host.host_id, "sleeping")
            powered_s = duration(host.host_id, "powered")
            suspending_s = duration(host.host_id, "suspending")
            resuming_s = duration(host.host_id, "resuming")
            total = sleep_s + powered_s + suspending_s + resuming_s
            assert total == pytest.approx(86400.0, abs=1.0)
            sleep_w = profile.sleep_w + (
                ms_w if host.role is HostRole.COMPUTE else 0.0
            )
            low = (
                sleep_s * sleep_w
                + powered_s * profile.idle_w
                + suspending_s * profile.suspend_w
                + resuming_s * profile.resume_w
            )
            high = low + powered_s * profile.per_vm_w * (
                simulation.config.capacity_mib / 4096.0
            )
            measured = simulation.ledger.energy_joules(host.host_id)
            assert low - 1.0 <= measured <= high + 1.0

    def test_managed_energy_below_baseline_for_mostly_idle_day(self):
        ensemble = ensemble_from_bits([[]] * 20)
        _sim, result = run(
            tiny_config(home_hosts=10), FULL_TO_PARTIAL, ensemble
        )
        assert result.energy.managed_joules < result.energy.baseline_joules
