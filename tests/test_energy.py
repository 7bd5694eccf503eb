"""Power profiles, energy accounting, and the savings metric."""

import math
import random

import pytest

from repro.energy import (
    EnergyAccountant,
    EnergyReport,
    HostPowerProfile,
    MemoryServerProfile,
    TABLE1_HOST,
    TABLE1_MEMORY_SERVER,
    baseline_energy_joules,
)
from repro.energy.accounting import SURCHARGE_STATE
from repro.errors import ConfigError, SimulationError


class TestHostPowerProfile:
    def test_table1_idle(self):
        assert TABLE1_HOST.powered_watts() == pytest.approx(102.2)

    def test_table1_twenty_vms(self):
        assert TABLE1_HOST.powered_watts(full_vms=20) == pytest.approx(137.9)

    def test_partial_vms_are_nearly_free(self):
        # 30 partial VMs at a 4% resident fraction cost ~2 W, versus
        # ~54 W for 30 full VMs: the heart of dense consolidation.
        partial = TABLE1_HOST.powered_watts(partial_resident_fraction=30 * 0.04)
        full = TABLE1_HOST.powered_watts(full_vms=30)
        assert partial - TABLE1_HOST.idle_w < 3.0
        assert full - TABLE1_HOST.idle_w > 50.0

    def test_transition_round_trip(self):
        assert TABLE1_HOST.transition_round_trip_s == pytest.approx(5.4)

    def test_sleeping_home_with_memory_server_draws_55_1_w(self):
        # §4.4.1: "combined power use ... (55.1 W)".
        total = TABLE1_HOST.sleep_w + TABLE1_MEMORY_SERVER.total_w
        assert total == pytest.approx(55.1)

    def test_negative_vm_count_rejected(self):
        with pytest.raises(ConfigError):
            TABLE1_HOST.powered_watts(full_vms=-1)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigError):
            HostPowerProfile(idle_w=0.0)
        with pytest.raises(ConfigError):
            HostPowerProfile(per_vm_w=-1.0)


class TestMemoryServerProfile:
    def test_prototype_total(self):
        assert MemoryServerProfile.prototype().total_w == pytest.approx(42.2)

    def test_alternative_designs(self):
        for watts in (16.0, 8.0, 4.0, 2.0, 1.0):
            assert MemoryServerProfile.alternative(watts).total_w == watts

    def test_alternative_rejects_negative(self):
        with pytest.raises(ConfigError):
            MemoryServerProfile.alternative(-1.0)


class TestEnergyAccountant:
    def test_constant_power_integration(self):
        meter = EnergyAccountant()
        meter.set_power("host", 100.0, now=0.0)
        meter.finish(now=3600.0)
        assert meter.energy_joules("host") == pytest.approx(360_000.0)

    def test_piecewise_power(self):
        meter = EnergyAccountant()
        meter.set_power("host", 100.0, now=0.0)
        meter.set_power("host", 10.0, now=100.0)
        meter.finish(now=200.0)
        assert meter.energy_joules("host") == pytest.approx(11_000.0)

    def test_total_over_entities(self):
        meter = EnergyAccountant()
        meter.set_power("a", 10.0, now=0.0)
        meter.set_power("b", 20.0, now=0.0)
        meter.finish(now=10.0)
        assert meter.total_joules() == pytest.approx(300.0)

    def test_unknown_entity_reads_zero(self):
        assert EnergyAccountant().energy_joules("ghost") == 0.0

    def test_time_travel_rejected(self):
        meter = EnergyAccountant()
        meter.set_power("host", 1.0, now=10.0)
        with pytest.raises(SimulationError):
            meter.set_power("host", 2.0, now=5.0)

    def test_negative_power_rejected(self):
        with pytest.raises(SimulationError):
            EnergyAccountant().set_power("host", -1.0, now=0.0)

    def test_redundant_updates_are_harmless(self):
        meter = EnergyAccountant()
        meter.set_power("host", 50.0, now=0.0)
        for t in range(1, 10):
            meter.set_power("host", 50.0, now=float(t))
        meter.finish(now=10.0)
        assert meter.energy_joules("host") == pytest.approx(500.0)


class TestStateTimeTracker:
    """Power-state residence time on the one meter."""

    def test_durations_accumulate(self):
        meter = EnergyAccountant()
        meter.set_state("h", "powered", now=0.0)
        meter.set_state("h", "sleeping", now=60.0)
        meter.set_state("h", "powered", now=100.0)
        meter.finish(now=160.0)
        assert meter.state_duration("h", "powered") == pytest.approx(120.0)
        assert meter.state_duration("h", "sleeping") == pytest.approx(40.0)

    def test_total_duration_sums_entities(self):
        meter = EnergyAccountant()
        meter.set_state("a", "sleeping", now=0.0)
        meter.set_state("b", "sleeping", now=0.0)
        meter.finish(now=10.0)
        assert meter.state_time_s() == {"sleeping": pytest.approx(20.0)}

    def test_out_of_order_rejected(self):
        meter = EnergyAccountant()
        meter.set_state("h", "powered", now=10.0)
        with pytest.raises(SimulationError):
            meter.set_state("h", "sleeping", now=5.0)

    def test_edge_before_the_other_kinds_last_edge_rejected(self):
        meter = EnergyAccountant()
        meter.set_power("h", 10.0, now=10.0)
        with pytest.raises(SimulationError):
            meter.set_state("h", "sleeping", now=5.0)

    def test_finish_before_an_open_span_rejected(self):
        meter = EnergyAccountant()
        meter.set_state("h", "powered", now=10.0)
        with pytest.raises(SimulationError):
            meter.finish(now=5.0)


def _reference_integration(edges, horizon):
    """Integrate an edge list the long way: per-entity piecewise power
    and state timelines, each span integrated over its whole length."""
    joules, seconds, state_joules = {}, {}, {}
    timelines = {}
    for entity, kind, value, now in edges:
        if kind == "energy":
            joules[entity] = joules.get(entity, 0.0) + value
            state_joules[SURCHARGE_STATE] = (
                state_joules.get(SURCHARGE_STATE, 0.0) + value
            )
            continue
        timelines.setdefault(entity, []).append((now, kind, value))
    for entity, timeline in timelines.items():
        watts, state, last = 0.0, None, None
        power_since = state_since = None
        for now, kind, value in timeline + [(horizon, "end", None)]:
            if last is not None and state is not None:
                state_joules[state] = (
                    state_joules.get(state, 0.0) + watts * (now - last)
                )
            if kind in ("power", "end") and power_since is not None:
                joules[entity] = (
                    joules.get(entity, 0.0) + watts * (now - power_since)
                )
            if kind in ("state", "end") and state is not None:
                key = (entity, state)
                seconds[key] = seconds.get(key, 0.0) + (now - state_since)
            if kind == "power":
                watts, power_since = value, now
            elif kind == "state":
                state, state_since = value, now
            last = now
    return joules, seconds, state_joules


class TestOneMeterRandomized:
    """Seeded interleavings of the three writes against a reference."""

    STATES = ("powered", "suspending", "sleeping", "resuming")

    def _edges(self, rng):
        entities = [f"host-{index}" for index in range(rng.randint(1, 4))]
        edges, now = [], 0.0
        for entity in entities:
            # Hosts report power, then state, as the farm does.
            edges.append((entity, "power", rng.uniform(0.0, 200.0), now))
            edges.append((entity, "state", rng.choice(self.STATES), now))
        for _ in range(rng.randint(0, 60)):
            if rng.random() < 0.6:
                # Many edges share an instant, as in one event callback.
                now += rng.choice((0.0, 0.0, rng.uniform(0.0, 500.0)))
            roll = rng.random()
            entity = rng.choice(entities)
            if roll < 0.5:
                edges.append((entity, "power", rng.uniform(0.0, 200.0), now))
            elif roll < 0.85:
                edges.append((entity, "state", rng.choice(self.STATES), now))
            else:
                tax = ("wake-tax", rng.choice(entities))
                edges.append((tax, "energy", rng.uniform(0.0, 1e4), now))
        return edges, now + rng.uniform(0.0, 500.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_sums_match_reference_integration(self, seed):
        edges, horizon = self._edges(random.Random(seed))
        meter = EnergyAccountant()
        for entity, kind, value, now in edges:
            if kind == "power":
                meter.set_power(entity, value, now)
            elif kind == "state":
                meter.set_state(entity, value, now)
            else:
                meter.add_energy(entity, value)
        meter.finish(horizon)
        joules, seconds, state_joules = _reference_integration(
            edges, horizon
        )

        def close(actual, expected):
            return math.isclose(actual, expected, rel_tol=1e-12,
                                abs_tol=1e-9)

        assert set(meter.entities()) == set(joules) | {
            entity for entity, _state in seconds
        }
        for entity, expected in joules.items():
            assert close(meter.energy_joules(entity), expected), entity
        for (entity, state), expected in seconds.items():
            assert close(meter.state_duration(entity, state), expected)
        split = meter.state_energy_j()
        assert set(split) <= set(state_joules)
        for state, expected in state_joules.items():
            assert close(split.get(state, 0.0), expected), state
        assert math.isclose(
            sum(split.values()), meter.total_joules(), rel_tol=1e-9,
            abs_tol=1e-9,
        )


class TestBaselineAndReport:
    def test_baseline_formula(self):
        # 30 hosts x 155.75 W x 86400 s.
        joules = baseline_energy_joules(
            TABLE1_HOST, home_hosts=30, vms_per_host=30, duration_s=86400.0
        )
        expected_watts = 102.2 + 30 * 1.785
        assert joules == pytest.approx(30 * expected_watts * 86400.0)

    def test_baseline_validation(self):
        with pytest.raises(ConfigError):
            baseline_energy_joules(TABLE1_HOST, 0, 30, 86400.0)

    def test_report_savings(self):
        report = EnergyReport(managed_joules=70.0, baseline_joules=100.0)
        assert report.savings_fraction == pytest.approx(0.30)

    def test_report_wh_conversion(self):
        report = EnergyReport(managed_joules=3600.0, baseline_joules=7200.0)
        assert report.managed_wh == pytest.approx(1.0)
        assert report.baseline_wh == pytest.approx(2.0)

    def test_report_validation(self):
        with pytest.raises(ConfigError):
            EnergyReport(managed_joules=1.0, baseline_joules=0.0)
        with pytest.raises(ConfigError):
            EnergyReport(managed_joules=-1.0, baseline_joules=10.0)
