"""Differential battery: tracing must never change what it observes.

Runs identical seeded farm days with no tracer, an explicit no-op
:class:`Tracer`, and a :class:`RecordingTracer`, and requires the
:class:`FarmResult` snapshots to be byte-identical in all three modes —
for every policy, fault-free and under a heavy fault profile.  The CLI
check requires ``simulate --trace`` to reproduce the pinned golden
stdout exactly, plus only the trailing trace line.

The observability layer earns its "zero overhead, zero interference"
claim here: a tracer has no RNG access and no clock of its own, so the
only way this battery can fail is a wiring change that made emission
reorder or consume a draw.
"""

import json

import pytest

from repro.core import policy_by_name
from repro.farm import FarmConfig, simulate_day
from repro.faults import fault_profile_by_name
from repro.obs import RecordingTracer, Tracer, read_jsonl
from repro.traces import DayType
from tests.golden.update_goldens import (
    FARM_SHAPE,
    GOLDEN_PATH,
    POLICY_SEEDS,
    snapshot_result,
)

FAULT_PROFILES = ("none", "heavy")


def run_snapshot(policy_name, seed, profile_name, tracer):
    """JSON-normalized result snapshot of one seeded traced/untraced day."""
    config = FarmConfig(
        **FARM_SHAPE, faults=fault_profile_by_name(profile_name)
    )
    result = simulate_day(
        config,
        policy_by_name(policy_name),
        DayType.WEEKDAY,
        seed=seed,
        tracer=tracer,
    )
    return json.loads(json.dumps(snapshot_result(result), sort_keys=True))


@pytest.mark.parametrize("profile_name", FAULT_PROFILES)
@pytest.mark.parametrize("policy_name", sorted(POLICY_SEEDS))
def test_tracing_modes_are_result_identical(policy_name, profile_name):
    seed = POLICY_SEEDS[policy_name]
    untraced = run_snapshot(policy_name, seed, profile_name, tracer=None)
    null_traced = run_snapshot(
        policy_name, seed, profile_name, tracer=Tracer()
    )
    recorder = RecordingTracer()
    recorded = run_snapshot(policy_name, seed, profile_name, tracer=recorder)
    assert null_traced == untraced
    assert recorded == untraced
    # The recording run actually observed the day it did not perturb.
    assert recorder.events
    assert recorder.open_span_count == 0


def test_recording_run_emits_fault_events_under_heavy_profile():
    recorder = RecordingTracer()
    run_snapshot("Default", POLICY_SEEDS["Default"], "heavy", recorder)
    categories = {event.category for event in recorder.events}
    assert "fault" in categories
    assert "power" in categories
    assert "migration" in categories


@pytest.mark.parametrize("policy_name", sorted(POLICY_SEEDS))
def test_cli_trace_flag_preserves_golden_stdout(tmp_path, policy_name):
    """``--trace`` appends exactly one line to the pinned golden stdout."""
    import contextlib
    import io

    from repro.cli import main

    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)["policies"][policy_name]
    trace_path = tmp_path / f"{policy_name}.jsonl"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main([
            "simulate",
            "--policy", policy_name,
            "--seed", str(pinned["seed"]),
            "--home-hosts", str(FARM_SHAPE["home_hosts"]),
            "--consolidation-hosts", str(FARM_SHAPE["consolidation_hosts"]),
            "--vms-per-host", str(FARM_SHAPE["vms_per_host"]),
            "--trace", str(trace_path),
        ])
    assert status == 0
    stdout = buffer.getvalue()
    assert stdout.startswith(pinned["simulate_stdout"])
    extra = stdout[len(pinned["simulate_stdout"]):]
    assert extra.startswith("trace:") and extra.count("\n") == 1
    # The file it reports is a readable, non-trivial JSONL trace.
    events = read_jsonl(str(trace_path))
    assert len(events) > 100
    assert f"{len(events)} events" in extra
