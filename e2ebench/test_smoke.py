"""Smoke test of the benchmark: every workload on a tiny farm.

Run from the repository root::

    python3 -m pytest e2ebench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-rack", "equiv-cert", "zoned-20k")

sys.path.insert(0, HERE)
import run as bench  # noqa: E402

bench.bootstrap(ROOT)
import layertrace  # noqa: E402
import workloads  # noqa: E402
from repro.farm import FarmConfig  # noqa: E402


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink the paper-rack and zoned farms (equiv-cert's 16-VM farm is
    already small) and run from the repository root."""
    monkeypatch.setattr(workloads.PaperRack, "config", FarmConfig(
        home_hosts=4, consolidation_hosts=2, vms_per_host=4))
    monkeypatch.setattr(workloads.Zoned20k, "config", FarmConfig(
        home_hosts=8, consolidation_hosts=4, vms_per_host=4))
    monkeypatch.setattr(workloads.Zoned20k, "zones", 2)
    monkeypatch.chdir(ROOT)


def _result(capsys, *args):
    assert bench.main(["--seed", "3", "--seconds", "0", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines, name, unit):
    return any(
        line.split()[:1] == [name] and unit in line.split()
        for line in lines
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, capsys):
    lines, result = _result(capsys, "--workload", workload, "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, (unit, _better, _kind, _in_json) in bench.END_TO_END.items():
        if name == "paper_gap_pp" and workload != "paper-rack":
            continue
        assert _printed(lines, name, unit), name
    expected = {
        name: unit for name, (unit, _b, _k, in_json)
        in bench.END_TO_END.items() if in_json
    }
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == expected
    assert all(
        isinstance(entry["value"], (int, float))
        for entry in result["metrics"].values()
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, capsys):
    lines, result = _result(capsys, "--workload", workload, "--trace", "1")
    assert result["correct"] is True
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == bench.PER_LAYER
    for name, unit in bench.PER_LAYER.items():
        assert _printed(lines, name, unit), name
    assert result["metrics"]["bench.missing_targets"]["value"] == 0
    spans = os.path.join(ROOT, bench.OUT_DIR,
                         f"spans-{workload}-seed3.jsonl")
    with open(spans, encoding="utf-8") as handle:
        first = json.loads(handle.readline())
    assert {"id", "name", "parent", "day", "start_us", "end_us"} <= set(first)


def test_a_broken_day_counts_toward_fail_frac(monkeypatch, capsys):
    """The first policy is certified on an engine tap that adds a watt
    to every draw; it must be rejected and the run must go on."""
    from repro.core.strategies import resolve_strategy
    from repro.equiv import (
        compare_fingerprints,
        load_baseline,
        mutant_by_name,
        run_mutant_ensemble,
    )
    from repro.traces import DayType

    compare_to_baseline = workloads.compare_to_baseline
    tapped = []

    def first_policy_tapped(payload, config, policy, runner=None):
        if not tapped:
            tapped.append(policy)
        if policy != tapped[0]:
            return compare_to_baseline(payload, config, policy, runner=runner)
        baseline = load_baseline(payload)[resolve_strategy(policy).name]
        perturbed = run_mutant_ensemble(
            config, policy, DayType(payload["day_type"]),
            [fp.seed for fp in baseline], mutant_by_name("watts-plus-one"),
        )
        return compare_fingerprints(baseline, perturbed)

    monkeypatch.setattr(workloads, "compare_to_baseline", first_policy_tapped)
    lines, result = _result(capsys, "--workload", "equiv-cert", "--trace", "0")
    # Two passes (the warm-up and one timed pass) of five policies of 20
    # pinned seeds each; the tapped one is rejected and the other four
    # still run.
    assert result["attempted"] == 200
    assert result["failed"] == 40
    assert result["correct"] is False
    assert any(line.startswith("FAILED ") for line in lines)
    fail_frac = [line for line in lines if line.startswith("fail_frac ")]
    assert float(fail_frac[0].split()[1]) == pytest.approx(0.2)


def test_a_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(layertrace, "TARGETS", layertrace.TARGETS + (
        ("core.gone", "repro.farm.planes:RemovedPlane.plan", "span"),
        ("core.gone", "repro.no_such_module:f", "span"),
    ))
    tracer = layertrace.LayerTracer()
    assert tracer.missing == [
        "repro.farm.planes:RemovedPlane.plan", "repro.no_such_module:f",
    ]
    from repro.farm.runner import SweepRunner

    original = SweepRunner.run
    tracer.install()
    try:
        assert SweepRunner.run is not original
    finally:
        tracer.uninstall()
    assert SweepRunner.run is original


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _b, _k, in_json)
        in bench.END_TO_END.items() if in_json
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER


def test_without_the_program_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "paper-rack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
