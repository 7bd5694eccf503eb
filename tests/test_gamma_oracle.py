"""Exact-solver oracle battery for Γ-robust packing.

Three rings of defense, outermost first:

* the branch-and-bound oracle (:func:`minimum_bins`) is verified
  against :func:`brute_force_minimum_bins` — an independent set-
  partition enumerator that shares no search machinery — on every
  seeded instance small enough to brute-force;
* the Γ-aware First-Fit heuristic is scored against the verified
  oracle: on every battery instance its optimality gap is at most one
  host (the PR's acceptance bound);
* the gap *report* consumed by ``micro gamma`` and CI records the
  statistics it claims (per-instance rows, mean/max gap, optimal
  fraction) consistently with its own rows.

Also pins the ``gamma.intervals`` determinism contract of
:class:`DemandIntervalModel`: intervals are a pure function of
``(root seed, vm id)``, independent of query order.
"""

import math

import pytest

from repro.policies import (
    DemandIntervalModel,
    brute_force_minimum_bins,
    gamma_first_fit,
    minimum_bins,
    oracle_gap_report,
    render_gap_report,
    seeded_instance,
)
from repro.vm.machine import VirtualMachine
from repro.vm.workingset import WorkingSetSampler

#: Instances the independent brute force can afford (<= 8 items each).
BRUTE_FORCE_SEEDS = range(40)

#: The default battery scored for heuristic gaps (12-item instances).
GAP_SEEDS = range(30)


@pytest.mark.parametrize("seed", BRUTE_FORCE_SEEDS)
def test_branch_and_bound_matches_brute_force(seed):
    """B&B must agree with exhaustive set-partition enumeration."""
    instance = seeded_instance(seed, max_items=8)
    assert len(instance.items) <= 8
    expected = brute_force_minimum_bins(
        instance.items, instance.gamma, instance.capacity
    )
    assert minimum_bins(
        instance.items, instance.gamma, instance.capacity
    ) == expected


@pytest.mark.parametrize("seed", BRUTE_FORCE_SEEDS)
def test_oracle_respects_bounds(seed):
    """optimal is sandwiched: volume lower bound <= optimal <= FF."""
    instance = seeded_instance(seed, max_items=8)
    optimal = minimum_bins(instance.items, instance.gamma, instance.capacity)
    heuristic = len(gamma_first_fit(
        instance.items, instance.gamma, instance.capacity
    ))
    volume_bound = math.ceil(
        sum(item.nominal for item in instance.items) / instance.capacity
        - 1e-9
    )
    assert max(1, volume_bound) <= optimal <= heuristic


def test_empty_instance_needs_no_bins():
    assert minimum_bins([], 2, 100.0) == 0
    assert brute_force_minimum_bins([], 2, 100.0) == 0


def test_heuristic_gap_at_most_one_host():
    """Acceptance bound: on every seeded battery instance the Γ-robust
    First-Fit uses at most one host more than the exact optimum."""
    report = oracle_gap_report()
    rows = report["instances"]
    assert len(rows) == len(GAP_SEEDS)
    for row in rows:
        assert row["gap"] >= 0, row
        assert row["gap"] <= 1, (
            f"seed {row['seed']}: FF used {row['ff_bins']} bins vs "
            f"optimal {row['optimal_bins']}"
        )


def test_gap_statistics_are_recorded_and_consistent():
    """The report's summary is derived from (and consistent with) its
    per-instance rows, and the rendered table surfaces it."""
    report = oracle_gap_report()
    rows = report["instances"]
    summary = report["summary"]
    gaps = [row["gap"] for row in rows]
    assert report["schema"] == "repro.gamma-oracle/1"
    assert summary["count"] == len(rows)
    assert summary["mean_gap"] == pytest.approx(sum(gaps) / len(gaps))
    assert summary["max_gap"] == max(gaps)
    assert summary["optimal_fraction"] == pytest.approx(
        gaps.count(0) / len(gaps)
    )
    rendered = render_gap_report(report)
    assert f"instances: {summary['count']}" in rendered
    assert f"max gap: {summary['max_gap']}" in rendered
    # One line per instance plus header (2) and summary (1).
    assert len(rendered.splitlines()) == len(rows) + 3


def test_report_is_deterministic():
    assert oracle_gap_report() == oracle_gap_report()


# ----------------------------------------------------------------------
# the gamma.intervals determinism contract
# ----------------------------------------------------------------------


def _model(root_seed: int) -> DemandIntervalModel:
    return DemandIntervalModel(WorkingSetSampler(), root_seed)


def test_intervals_pure_in_seed_and_vm_id():
    """Same (root seed, vm id) -> same interval, regardless of the
    order VMs are queried in — the zone-sharding guarantee."""
    vms = [VirtualMachine(vm_id, origin_home_id=0) for vm_id in range(16)]
    forward = {vm.vm_id: _model(42).interval(vm) for vm in vms}
    backward = {
        vm.vm_id: _model(42).interval(vm) for vm in reversed(vms)
    }
    assert forward == backward
    different_seed = {vm.vm_id: _model(43).interval(vm) for vm in vms}
    assert forward != different_seed


def test_interval_shape():
    """nominal <= memory; deviation covers the model's spike fraction of
    the remaining headroom and never pushes past full memory."""
    sampler = WorkingSetSampler()
    model = DemandIntervalModel(sampler, 7)
    low, high = DemandIntervalModel.SPIKE_MIN, DemandIntervalModel.SPIKE_MAX
    assert (low, high) == (0.25, 0.75)
    for vm_id in range(32):
        vm = VirtualMachine(vm_id, origin_home_id=0)
        nominal, deviation = model.interval(vm)
        assert nominal == pytest.approx(
            min(sampler.expected_mib(), vm.memory_mib)
        )
        headroom = vm.memory_mib - nominal
        assert low * headroom - 1e-9 <= deviation <= high * headroom + 1e-9
        assert nominal + deviation <= vm.memory_mib + 1e-9
