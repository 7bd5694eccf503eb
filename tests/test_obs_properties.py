"""Property battery: trace invariants under randomized fault schedules.

Reuses the randomized-schedule harness of
``tests/test_faults_properties.py`` — ~100 small farm days, each with an
independently randomized fault profile, rotating policy and day type —
but runs every day under a :class:`RecordingTracer` and asserts the
invariants any healthy trace must satisfy:

* spans strictly nest and balance (begin/end pair by name, stack empties),
* timestamps are monotone non-decreasing and sequence numbers dense,
* every :class:`FaultCounters` and migration-counter increment has a
  matching trace event (and vice versa — the equalities are exact, not
  ``>=``),
* per-host power-state chains rebuilt from ``power.*`` events replay
  legally through ``_LEGAL_TRANSITIONS``,
* every trace exports to a schema-valid Chrome trace document.
"""

import json
import random
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.cluster.power import _LEGAL_TRANSITIONS, PowerState
from repro.core import ALL_POLICIES
from repro.farm import FarmConfig, FarmSimulation
from repro.obs import (
    PHASE_BEGIN,
    PHASE_END,
    RecordingTracer,
    TraceEvent,
    events_to_chrome,
    events_to_jsonl,
    validate_chrome_trace,
)
from repro.simulator.randomness import RngStreams
from repro.traces import DayType, generate_ensemble
from tests.test_faults_properties import SMALL_SHAPE, random_profile
from tests.test_obs import assert_counters_match_migration_events

# Same tier as the faults battery: tier-1 by default, deselectable in
# CI's quick tier via the marker.
pytestmark = pytest.mark.slow

CASES = 100


@dataclass
class TracedCase:
    """One randomized traced day and everything asserted about it."""

    index: int
    simulation: FarmSimulation
    tracer: RecordingTracer

    @property
    def events(self) -> List[TraceEvent]:
        return self.tracer.events

    def named(self, name: str) -> List[TraceEvent]:
        return [event for event in self.events if event.name == name]


@pytest.fixture(scope="module")
def battery() -> List[TracedCase]:
    master = random.Random(0x0B5EFA17)
    cases: List[TracedCase] = []
    for index in range(CASES):
        profile = random_profile(master, index)
        policy = ALL_POLICIES[index % len(ALL_POLICIES)]
        day_type = (DayType.WEEKDAY, DayType.WEEKEND)[index % 2]
        config = FarmConfig(**SMALL_SHAPE, faults=profile)
        ensemble = generate_ensemble(
            config.total_vms,
            day_type,
            seed=RngStreams(index).get("traces").randrange(2**31),
            config=config.traces,
        )
        tracer = RecordingTracer()
        simulation = FarmSimulation(
            config, policy, ensemble, seed=index, tracer=tracer
        )
        simulation.run()
        cases.append(TracedCase(index, simulation, tracer))
    return cases


class TestSpanStructure:
    def test_spans_strictly_nest_and_balance(self, battery):
        for case in battery:
            assert case.tracer.open_span_count == 0
            stack = []
            for event in case.events:
                if event.phase == PHASE_BEGIN:
                    stack.append((event.name, event.category))
                elif event.phase == PHASE_END:
                    assert stack, (
                        f"case {case.index}: end of {event.name!r} "
                        "with no open span"
                    )
                    name, category = stack.pop()
                    assert (name, category) == (event.name, event.category)
            assert stack == [], f"case {case.index}: unclosed spans {stack}"

    def test_day_span_encloses_whole_trace(self, battery):
        for case in battery:
            first, last = case.events[0], case.events[-1]
            assert (first.name, first.phase) == ("farm.day", PHASE_BEGIN)
            assert (last.name, last.phase) == ("farm.day", PHASE_END)

    def test_timestamps_monotone_and_seqs_dense(self, battery):
        for case in battery:
            times = [event.time_s for event in case.events]
            assert times == sorted(times), f"case {case.index}: time warp"
            assert [event.seq for event in case.events] == list(
                range(len(case.events))
            )


class TestCounterEventMatching:
    """Each FaultCounters field equals its trace-event witness, exactly;
    so does each migration counter."""

    def test_battery_exercises_every_fault_class(self, battery):
        totals = [case.simulation.result.faults for case in battery]
        assert sum(c.migration_aborts for c in totals) > 0
        assert sum(c.migration_retries for c in totals) > 0
        assert sum(c.wake_give_ups for c in totals) > 0
        assert sum(c.memserver_crashes for c in totals) > 0
        assert sum(c.page_fetch_timeouts for c in totals) > 0

    def test_migration_aborts(self, battery):
        for case in battery:
            faults = case.simulation.result.faults
            assert faults.migration_aborts == len(
                case.named("fault.migration_abort")
            )
            rollbacks = case.named("fault.migration_rollback")
            assert faults.migration_aborts == len(rollbacks)
            assert faults.aborted_traffic_mib == pytest.approx(
                sum(event.args["mib"] for event in rollbacks)
            )
            assert faults.migration_retries == len(
                case.named("fault.migration_retry")
            )

    def test_migration_counters(self, battery):
        for case in battery:
            assert_counters_match_migration_events(
                case.simulation.result.counters, case.events
            )

    def test_wake_failures(self, battery):
        for case in battery:
            faults = case.simulation.result.faults
            failures = case.named("fault.wake_failure")
            assert faults.wake_give_ups == sum(
                1 for event in failures if event.args["gave_up"]
            )
            assert faults.wake_retries == sum(
                event.args["failed_attempts"]
                - (1 if event.args["gave_up"] else 0)
                for event in failures
            )
            assert faults.wake_reroutes == len(
                case.named("fault.wake_reroute")
            )

    def test_memserver_crashes(self, battery):
        for case in battery:
            faults = case.simulation.result.faults
            assert faults.memserver_crashes == len(
                case.named("fault.memserver_crash")
            )
            forced = case.named("fault.crash_forced_wakeup")
            assert faults.crash_forced_wakeups == len(forced)
            assert faults.crash_forced_reintegrations == sum(
                event.args["reintegrations"] for event in forced
            )

    def test_page_timeouts(self, battery):
        for case in battery:
            faults = case.simulation.result.faults
            drawn = sum(
                event.args["timeouts"]
                for event in case.named("fault.page_timeouts")
            )
            charged = case.named("fault.page_retry")
            assert faults.page_fetch_timeouts == drawn
            assert faults.page_fetch_timeouts == sum(
                event.args["timeouts"] for event in charged
            )
            assert faults.page_retry_traffic_mib == pytest.approx(
                sum(event.args["retry_mib"] for event in charged)
            )


class TestPowerTransitionReplay:
    def test_chains_replay_legally(self, battery):
        for case in battery:
            state: Dict[int, str] = {}
            for event in case.named("power.init"):
                state[event.args["host"]] = event.args["state"]
            assert len(state) == len(case.simulation.cluster)
            transitions = case.named("power.transition")
            assert transitions, f"case {case.index}: no transitions traced"
            for event in transitions:
                host = event.args["host"]
                assert event.args["from"] == state[host], (
                    f"case {case.index}: host {host} jumped states"
                )
                target = PowerState(event.args["to"])
                assert target in _LEGAL_TRANSITIONS[
                    PowerState(event.args["from"])
                ], (
                    f"case {case.index}: illegal "
                    f"{event.args['from']} -> {event.args['to']}"
                )
                state[host] = event.args["to"]

    def test_failed_wake_edge_is_traced_somewhere(self, battery):
        edges = {
            (event.args["from"], event.args["to"])
            for case in battery
            for event in case.named("power.transition")
        }
        assert ("resuming", "sleeping") in edges


class TestExportsStaySound:
    def test_every_trace_exports_to_valid_chrome_document(self, battery):
        for case in battery:
            document = events_to_chrome(case.events)
            assert validate_chrome_trace(document) == len(document[
                "traceEvents"
            ])

    def test_jsonl_roundtrip_samples(self, battery):
        for case in battery[::10]:
            lines = events_to_jsonl(case.events).splitlines()
            assert len(lines) == len(case.events)
            parsed = [
                TraceEvent.from_dict(json.loads(line)) for line in lines
            ]
            assert parsed == case.events
