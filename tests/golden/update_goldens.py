"""Regenerate the golden end-to-end snapshots in ``tests/golden/``.

Run this ONLY when a change is *supposed* to shift simulation results
(a new model, a recalibration, a bug fix whose effect is understood):

    PYTHONPATH=src python tests/golden/update_goldens.py

Then eyeball the diff of ``tests/golden/`` — every
changed number must be explainable by the change you are making — and
commit the regenerated file together with the code change.  The golden
test (``tests/test_farm_golden.py``) exists so that unrelated PRs cannot
shift the Figure 8 headline metrics silently; bypassing it without
reading the diff defeats its purpose.

``farm_golden.json`` pins, per policy, one seeded small-farm day:

* the energy savings fraction (full float precision),
* every migration/fault counter,
* the traffic ledger (MiB per category, full float precision),
* delay-sample count and zero-delay fraction,
* the exact ``oasis-sim simulate`` stdout (byte-for-byte).

``gamma_golden.json`` does the same for two Γ-robust policies,
``rack_golden.json`` pins the result snapshot of seven paper-scale
900-VM days (``RACK_DAYS``; ``tests/test_rack_golden.py``), and
``fault_golden.json`` pins five heavy-fault small-farm days with their
per-state time and energy split (``FAULT_DAYS``;
``tests/test_fault_golden.py``).

It also pins one traced mini-run (``trace_golden.jsonl`` byte-for-byte,
plus its Chrome export ``trace_golden_chrome.json``) so the event
vocabulary and exporter formatting cannot drift silently either; see
``tests/test_trace_golden.py``.
"""

from __future__ import annotations

import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "farm_golden.json")

#: One pinned seed per policy; distinct seeds exercise distinct traces.
POLICY_SEEDS = {
    "OnlyPartial": 11,
    "Default": 12,
    "FulltoPartial": 13,
    "NewHome": 14,
}

#: Small but non-trivial farm: big enough that every policy migrates,
#: small enough that the four runs finish in well under a second.
FARM_SHAPE = dict(home_hosts=4, consolidation_hosts=2, vms_per_host=4)

GAMMA_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "gamma_golden.json"
)

#: GammaRobust lives in its own golden file so adding robust policies
#: never touches (let alone regenerates) ``farm_golden.json`` — the
#: four-policy snapshots stay byte-identical through the strategy
#: refactor.  One light and one heavy Γ, distinct pinned seeds.
GAMMA_SEEDS = {
    "GammaRobust@1": 21,
    "GammaRobust@3": 23,
}

RACK_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "rack_golden.json"
)

#: Paper scale: one seeded day of the 900-VM rack (``FarmConfig()``)
#: per pinned ``(policy, day type)``.  FARM_SHAPE's 16 VMs rarely roll
#: back several placements on one host or build long spike-room lists;
#: a rack day does both thousands of times, so these days reach planner
#: paths the small farm barely exercises.
RACK_DAYS = {
    "OnlyPartial/weekday": 31,
    "Default/weekday": 32,
    "FulltoPartial/weekday": 33,
    "NewHome/weekday": 34,
    "GammaRobust@1/weekday": 35,
    "GammaRobust@3/weekday": 36,
    "GammaRobust@3/weekend": 37,
}

FAULT_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fault_golden.json"
)

#: One ``heavy``-fault weekday on FARM_SHAPE per policy.  The other
#: farm goldens are fault-free, so these days are what pins aborted
#: migrations and their rollbacks: NewHome runs all ten migration kinds
#: here and FulltoPartial nine, each with over 150 aborted attempts.
FAULT_PROFILE = "heavy"
FAULT_DAYS = {
    "OnlyPartial": 41,
    "Default": 42,
    "FulltoPartial": 43,
    "NewHome": 44,
    "GammaRobust@3": 45,
}

EQUIV_BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "equiv_baseline.json"
)

#: The equivalence baseline: per-policy fingerprint ensembles at pinned
#: derived seeds (see ``repro.equiv.harness.ensemble_seeds``).  A future
#: engine variant is certified by replaying these seeds and passing the
#: paired battery (``oasis-sim equiv compare``).
EQUIV_ROOT_SEED = 2016
EQUIV_ENSEMBLE_SIZE = 20
EQUIV_POLICIES = (
    "OnlyPartial",
    "Default",
    "FulltoPartial",
    "NewHome",
    "GammaRobust@1",
)

TRACE_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "trace_golden.jsonl"
)
TRACE_CHROME_PATH = os.path.join(
    os.path.dirname(__file__), "trace_golden_chrome.json"
)

#: The traced mini-run: smaller than FARM_SHAPE (the trace grows with
#: every event), faulty enough that all event categories appear.
TRACE_SHAPE = dict(home_hosts=2, consolidation_hosts=1, vms_per_host=3)
TRACE_SEED = 5
TRACE_POLICY = "Default"
TRACE_FAULT_PROFILE = "heavy"


def snapshot_result(result) -> dict:
    """Everything a Figure 8/10/11 reader consumes, JSON-serializable."""
    import dataclasses

    return {
        "savings_fraction": result.savings_fraction,
        "managed_joules": result.energy.managed_joules,
        "baseline_joules": result.energy.baseline_joules,
        "counters": dataclasses.asdict(result.counters),
        "fault_counters": result.faults.as_dict(),
        "traffic_mib": result.traffic.as_dict(),
        "network_total_mib": result.traffic.network_total_mib(),
        "delay_samples": len(result.delays),
        "zero_delay_fraction": result.zero_delay_fraction(),
        "mean_home_sleep_fraction": result.mean_home_sleep_fraction(),
        "peak_active_vms": result.peak_active_vms,
        "min_powered_hosts": result.min_powered_hosts,
    }


def simulate_stdout(policy_name: str, seed: int) -> str:
    """The exact ``simulate`` subcommand stdout for one policy/seed."""
    import contextlib
    import io

    from repro.cli import main

    base, _, gamma = policy_name.partition("@")
    argv = [
        "simulate",
        "--policy", base,
        "--seed", str(seed),
        "--home-hosts", str(FARM_SHAPE["home_hosts"]),
        "--consolidation-hosts", str(FARM_SHAPE["consolidation_hosts"]),
        "--vms-per-host", str(FARM_SHAPE["vms_per_host"]),
    ]
    if gamma:
        argv += ["--gamma", gamma]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    assert status == 0
    return buffer.getvalue()


def build_goldens() -> dict:
    from repro.core import policy_by_name
    from repro.farm import FarmConfig, simulate_day
    from repro.traces import DayType

    config = FarmConfig(**FARM_SHAPE)
    goldens = {"farm_shape": FARM_SHAPE, "policies": {}}
    for policy_name, seed in POLICY_SEEDS.items():
        result = simulate_day(
            config, policy_by_name(policy_name), DayType.WEEKDAY, seed=seed
        )
        goldens["policies"][policy_name] = {
            "seed": seed,
            "result": snapshot_result(result),
            "simulate_stdout": simulate_stdout(policy_name, seed),
        }
    return goldens


def build_gamma_goldens() -> dict:
    from repro.core import strategy_by_name
    from repro.farm import FarmConfig, simulate_day
    from repro.traces import DayType

    config = FarmConfig(**FARM_SHAPE)
    goldens = {"farm_shape": FARM_SHAPE, "policies": {}}
    for policy_name, seed in GAMMA_SEEDS.items():
        result = simulate_day(
            config, strategy_by_name(policy_name), DayType.WEEKDAY, seed=seed
        )
        goldens["policies"][policy_name] = {
            "seed": seed,
            "result": snapshot_result(result),
            "simulate_stdout": simulate_stdout(policy_name, seed),
        }
    return goldens


def simulate_rack_day(key: str, seed: int):
    """One ``RACK_DAYS`` entry (``"Policy/daytype"``) on ``FarmConfig()``."""
    from repro.core import strategy_by_name
    from repro.farm import FarmConfig, simulate_day
    from repro.traces import DayType

    policy_name, _, day_type = key.partition("/")
    return simulate_day(
        FarmConfig(), strategy_by_name(policy_name), DayType(day_type),
        seed=seed,
    )


def build_rack_goldens() -> dict:
    return {
        "days": {
            key: {
                "seed": seed,
                "result": snapshot_result(simulate_rack_day(key, seed)),
            }
            for key, seed in RACK_DAYS.items()
        }
    }


def simulate_fault_day(policy_name: str, seed: int):
    """One ``FAULT_DAYS`` entry: a heavy-fault weekday on FARM_SHAPE."""
    from repro.core import strategy_by_name
    from repro.farm import FarmConfig, simulate_day
    from repro.faults import fault_profile_by_name
    from repro.traces import DayType

    config = FarmConfig(
        **FARM_SHAPE, faults=fault_profile_by_name(FAULT_PROFILE)
    )
    return simulate_day(
        config, strategy_by_name(policy_name), DayType.WEEKDAY, seed=seed
    )


def snapshot_fault_result(result) -> dict:
    """``snapshot_result`` plus the per-state time and energy split."""
    snapshot = snapshot_result(result)
    snapshot["state_time_s"] = result.state_time_s
    snapshot["state_energy_j"] = result.state_energy_j
    return snapshot


def build_fault_goldens() -> dict:
    return {
        "farm_shape": FARM_SHAPE,
        "fault_profile": FAULT_PROFILE,
        "days": {
            policy_name: {
                "seed": seed,
                "result": snapshot_fault_result(
                    simulate_fault_day(policy_name, seed)
                ),
            }
            for policy_name, seed in FAULT_DAYS.items()
        },
    }


def build_equiv_baseline() -> None:
    from repro.equiv import build_baseline, write_baseline
    from repro.farm import FarmConfig
    from repro.traces import DayType

    payload = build_baseline(
        FarmConfig(**FARM_SHAPE),
        EQUIV_POLICIES,
        DayType.WEEKDAY,
        root_seed=EQUIV_ROOT_SEED,
        ensemble_size=EQUIV_ENSEMBLE_SIZE,
    )
    write_baseline(EQUIV_BASELINE_PATH, payload)
    print(
        f"wrote {EQUIV_BASELINE_PATH} "
        f"({len(EQUIV_POLICIES)} policies x {EQUIV_ENSEMBLE_SIZE} seeds)"
    )


def record_trace():
    """Run the pinned traced mini-day; returns its RecordingTracer."""
    from repro.core import policy_by_name
    from repro.farm import FarmConfig, simulate_day
    from repro.faults import fault_profile_by_name
    from repro.obs import RecordingTracer
    from repro.traces import DayType

    tracer = RecordingTracer()
    config = FarmConfig(
        **TRACE_SHAPE, faults=fault_profile_by_name(TRACE_FAULT_PROFILE)
    )
    simulate_day(
        config,
        policy_by_name(TRACE_POLICY),
        DayType.WEEKDAY,
        seed=TRACE_SEED,
        tracer=tracer,
    )
    return tracer


def build_trace_goldens() -> None:
    from repro.obs import write_chrome_trace, write_jsonl

    tracer = record_trace()
    count = write_jsonl(tracer.events, TRACE_GOLDEN_PATH)
    write_chrome_trace(tracer.events, TRACE_CHROME_PATH)
    print(f"wrote {TRACE_GOLDEN_PATH} ({count} events)")
    print(f"wrote {TRACE_CHROME_PATH}")


def main() -> int:
    goldens = build_goldens()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    gamma = build_gamma_goldens()
    with open(GAMMA_GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(gamma, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GAMMA_GOLDEN_PATH}")
    rack = build_rack_goldens()
    with open(RACK_GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(rack, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {RACK_GOLDEN_PATH}")
    fault = build_fault_goldens()
    with open(FAULT_GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(fault, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FAULT_GOLDEN_PATH}")
    build_trace_goldens()
    build_equiv_baseline()
    print("Diff it, explain every changed number, commit it with your change.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
