"""Property battery: global invariants under randomized fault schedules.

Runs a couple hundred small farm days, each with an independently
randomized fault profile and seed, and asserts the invariants that no
amount of injected failure is allowed to break: legal power-state
transitions only, per-host energy summing to the cluster total, every
VM resident on exactly one host, and the full
:func:`repro.farm.validate.validate_simulation` battery.  A zero-fault
control confirms the null profile reproduces the fault-free baseline
exactly, whatever its semantics knobs say.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

import repro.cluster.host as host_module
from repro.cluster.power import _LEGAL_TRANSITIONS, PowerState
from repro.core import ALL_POLICIES, DEFAULT as DEFAULT_POLICY
from repro.farm import FarmConfig, FarmSimulation, validate_simulation
from repro.faults import FaultProfile
from repro.simulator.randomness import RngStreams
from repro.traces import DayType, generate_ensemble

# The ~200-run battery takes a handful of seconds; it stays in the
# default tier-1 run but CI's quick tier may deselect it via the marker.
pytestmark = pytest.mark.slow

CASES = 200

SMALL_SHAPE = dict(home_hosts=2, consolidation_hosts=1, vms_per_host=3)


def random_profile(rng: random.Random, index: int) -> FaultProfile:
    """An independently randomized fault schedule for one battery case."""
    low = rng.uniform(0.02, 0.45)
    high = rng.uniform(low + 0.05, 0.98)
    return FaultProfile(
        name=f"battery-{index}",
        migration_abort_prob=rng.uniform(0.0, 0.35),
        abort_progress_min=low,
        abort_progress_max=high,
        wake_failure_prob=rng.uniform(0.0, 0.6),
        wake_retry_cap=rng.randrange(0, 4),
        wake_backoff_base_s=rng.uniform(1.0, 30.0),
        memserver_crash_prob=rng.uniform(0.0, 0.6),
        page_timeout_prob=rng.uniform(0.0, 0.5),
        page_timeout_retries_max=rng.randrange(1, 5),
        page_retry_mib=rng.uniform(1.0, 16.0),
    )


def run_day(profile: FaultProfile, seed: int, policy=DEFAULT_POLICY,
            day_type: DayType = DayType.WEEKDAY) -> FarmSimulation:
    config = FarmConfig(**SMALL_SHAPE, faults=profile)
    ensemble = generate_ensemble(
        config.total_vms,
        day_type,
        seed=RngStreams(seed).get("traces").randrange(2**31),
        config=config.traces,
    )
    simulation = FarmSimulation(config, policy, ensemble, seed=seed)
    simulation.run()
    return simulation


@dataclass
class BatteryCase:
    """Everything one randomized run contributes to the battery."""

    index: int
    profile: FaultProfile
    simulation: FarmSimulation
    transitions: List[Tuple[PowerState, PowerState]]


@pytest.fixture(scope="module")
def battery() -> List[BatteryCase]:
    """Run the full randomized battery once, recording every transition."""
    master = random.Random(0xFA117)
    original = host_module.check_transition
    recorded: List[Tuple[PowerState, PowerState]] = []

    def recording(current: PowerState, target: PowerState) -> None:
        recorded.append((current, target))
        original(current, target)

    cases: List[BatteryCase] = []
    host_module.check_transition = recording
    try:
        for index in range(CASES):
            profile = random_profile(master, index)
            policy = ALL_POLICIES[index % len(ALL_POLICIES)]
            day_type = (DayType.WEEKDAY, DayType.WEEKEND)[index % 2]
            start = len(recorded)
            simulation = run_day(profile, seed=index, policy=policy,
                                 day_type=day_type)
            cases.append(BatteryCase(
                index=index,
                profile=profile,
                simulation=simulation,
                transitions=recorded[start:],
            ))
    finally:
        host_module.check_transition = original
    return cases


class TestRandomScheduleInvariants:
    def test_battery_exercises_fault_paths(self, battery):
        """The randomized schedules actually inject a meaningful load."""
        totals = [case.simulation.result.faults for case in battery]
        assert sum(c.migration_aborts for c in totals) > 0
        assert sum(c.wake_retries for c in totals) > 0
        assert sum(c.wake_give_ups for c in totals) > 0
        assert sum(c.memserver_crashes for c in totals) > 0
        assert sum(c.page_fetch_timeouts for c in totals) > 0

    def test_only_legal_power_transitions(self, battery):
        """Every transition ever attempted is an edge of the machine."""
        seen = set()
        for case in battery:
            assert case.transitions, "run never touched the state machine"
            for current, target in case.transitions:
                assert target in _LEGAL_TRANSITIONS[current], (
                    f"case {case.index}: illegal {current} -> {target}"
                )
                seen.add((current, target))
        # Faulty wakes must exercise the failure edge somewhere.
        assert (PowerState.RESUMING, PowerState.SLEEPING) in seen

    def test_per_host_energy_sums_to_cluster_total(self, battery):
        for case in battery:
            ledger = case.simulation.ledger
            by_entity = sum(
                ledger.energy_joules(entity) for entity in ledger.entities()
            )
            assert by_entity == pytest.approx(
                case.simulation.result.energy.managed_joules, rel=1e-9
            )

    def test_every_vm_on_exactly_one_host(self, battery):
        for case in battery:
            residency: Dict[int, int] = {}
            for host in case.simulation.cluster:
                for vm_id in host.vm_ids:
                    assert vm_id not in residency, (
                        f"case {case.index}: VM {vm_id} on hosts "
                        f"{residency[vm_id]} and {host.host_id}"
                    )
                    residency[vm_id] = host.host_id
            for vm_id, vm in case.simulation.vms.items():
                assert residency.get(vm_id) == vm.host_id, (
                    f"case {case.index}: VM {vm_id} lost"
                )

    def test_full_validation_battery_passes(self, battery):
        for case in battery:
            validate_simulation(case.simulation)

    def test_fault_counters_consistent(self, battery):
        for case in battery:
            faults = case.simulation.result.faults
            energy = case.simulation.result.energy
            assert energy.fault_events == faults.total_events
            assert energy.fault_retries == faults.total_retries
            assert energy.fault_rollbacks == faults.total_rollbacks
            assert faults.crash_forced_wakeups <= faults.memserver_crashes
            assert faults.aborted_traffic_mib >= 0.0


class TestZeroFaultControl:
    def fingerprint(self, simulation: FarmSimulation):
        result = simulation.result
        return (
            result.savings_fraction,
            result.counters,
            result.delays,
            tuple(result.active_vms),
            tuple(result.powered_hosts),
        )

    def test_null_profile_matches_baseline_exactly(self):
        """Zero rates reproduce the fault-free run whatever the knobs."""
        baseline = self.fingerprint(run_day(FaultProfile.none(), seed=7))
        knobs_only = FaultProfile(
            name="knobs-only",
            wake_retry_cap=9,
            wake_backoff_base_s=60.0,
            page_timeout_retries_max=8,
            page_retry_mib=64.0,
        )
        assert knobs_only.is_null
        assert self.fingerprint(run_day(knobs_only, seed=7)) == baseline
        scaled_out = FaultProfile.heavy().scaled(0.0, name="heavy-x0")
        assert self.fingerprint(run_day(scaled_out, seed=7)) == baseline

    def test_null_profile_leaves_counters_clean(self):
        simulation = run_day(FaultProfile.none(), seed=9)
        assert simulation.result.faults.total_events == 0
        assert str(simulation.result.faults) == "FaultCounters(clean)"
