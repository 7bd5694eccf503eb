"""Γ-robust consolidation (the ``GammaRobust@Γ`` policies).

Oasis packs VMs with *point estimates* of demand, so a handful of
simultaneous working-set spikes can overflow a consolidation host that
looked safe on paper.  Following the Γ-robustness (Bertsimas-Sim)
treatment of bin packing, every idle VM's demand is modelled as an
interval ``[uc - ur, uc + ur]`` around a nominal working set ``uc``,
and a placement is *Γ-robust* when every host still fits if any Γ of
its VMs spike to their interval maximum while the rest sit at nominal:

    sum(uc) + (sum of the Γ largest ur) <= capacity

The module has three layers:

* a pure interval bin-packing core (:func:`gamma_first_fit` plus the
  exact :func:`minimum_bins` branch-and-bound oracle and the
  independent :func:`brute_force_minimum_bins` cross-check) used by the
  property/oracle test batteries and the ``micro gamma`` report;
* :class:`DemandIntervalModel`, which derives each VM's interval
  deterministically from the simulation seed (see below);
* :class:`GammaRobustPlanner`, the farm-facing planner: a
  :class:`~repro.core.placement.GreedyVacatePlanner` subclass that reads
  Γ from its policy spec (:func:`~repro.core.policies.gamma_robust`) and
  supplies only a demand model (nominal sizes and spike rooms); the
  shadow-capacity index applies the Γ-robust fit rule.  The cluster
  manager builds it for any spec with a ``gamma``.

Determinism contract (the ``gamma.intervals`` stream family): VM
``v``'s spike fraction is the single ``random()`` draw of a
``random.Random`` seeded with ``derive_seed(root_seed,
f"gamma.intervals:{v}")``.  Intervals are therefore a pure function of
``(root seed, vm id)`` — independent of planning order, of how often
the planner runs, and of every other named stream — so adding or
consulting them never perturbs existing streams, and zone-sharded runs
see the same intervals as the equivalent single-zone run of each shard
seed.  The planner itself draws nothing: Γ-robust placement is
deterministic first-fit (powered hosts before sleeping ones, ascending
host id within each tier).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import nlargest
from typing import Dict, List, Sequence, Tuple

from repro.core.placement import DestinationStrategy, GreedyVacatePlanner
from repro.core.policies import PolicySpec
from repro.errors import ConfigError
from repro.simulator.randomness import derive_seed
from repro.vm.machine import VirtualMachine
from repro.vm.state import Residency
from repro.vm.workingset import WorkingSetSampler

__all__ = [
    "GammaInstance",
    "GammaItem",
    "GammaRobustPlanner",
    "DemandIntervalModel",
    "brute_force_minimum_bins",
    "gamma_first_fit",
    "minimum_bins",
    "oracle_gap_report",
    "render_gap_report",
    "robust_fits",
    "robust_load",
    "seeded_instance",
]

#: Numerical slack for capacity comparisons, matching the shadow index.
_EPS = 1e-9


# ----------------------------------------------------------------------
# pure interval bin packing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GammaItem:
    """One VM's demand interval ``[nominal - deviation, nominal + deviation]``."""

    item_id: int
    nominal: float
    deviation: float

    def __post_init__(self) -> None:
        if self.nominal < 0.0:
            raise ConfigError(
                f"item {self.item_id}: nominal demand must be >= 0, "
                f"got {self.nominal}"
            )
        if self.deviation < 0.0:
            raise ConfigError(
                f"item {self.item_id}: deviation must be >= 0, "
                f"got {self.deviation}"
            )


def robust_load(items: Sequence[GammaItem], gamma: int) -> float:
    """Worst-case load with up to ``gamma`` items at their interval max."""
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    total = 0.0
    for item in items:
        total += item.nominal
    if gamma > 0 and items:
        total += sum(nlargest(gamma, (item.deviation for item in items)))
    return total


def robust_fits(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> bool:
    """Whether ``items`` are Γ-robust-feasible on one ``capacity`` bin."""
    return robust_load(items, gamma) <= capacity + _EPS


def _check_instance(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> None:
    if gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    if capacity <= 0.0:
        raise ConfigError(f"capacity must be > 0, got {capacity}")
    for item in items:
        worst = item.nominal + (item.deviation if gamma > 0 else 0.0)
        if worst > capacity + _EPS:
            raise ConfigError(
                f"item {item.item_id} needs {worst} alone; no bin of "
                f"capacity {capacity} can ever hold it"
            )


def gamma_first_fit(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> List[List[GammaItem]]:
    """Γ-aware First-Fit: each item goes to the first bin it robustly
    fits, in the order given; a new bin opens only when none fits.

    With ``gamma == 0`` this is exactly point-estimate First-Fit over
    the nominal demands.
    """
    _check_instance(items, gamma, capacity)
    bins: List[List[GammaItem]] = []
    loads: List[float] = []  # nominal sums, one per bin
    for item in items:
        for position, packed in enumerate(bins):
            load = loads[position] + item.nominal
            if gamma > 0:
                load += sum(nlargest(
                    gamma,
                    [other.deviation for other in packed] + [item.deviation],
                ))
            if load <= capacity + _EPS:
                packed.append(item)
                loads[position] += item.nominal
                break
        else:
            bins.append([item])
            loads.append(item.nominal)
    return bins


def brute_force_minimum_bins(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> int:
    """Exact optimum by enumerating every set partition (<= 10 items).

    Deliberately shares no search machinery with :func:`minimum_bins`:
    it is the differential reference the oracle battery checks the
    branch-and-bound solver against.
    """
    _check_instance(items, gamma, capacity)
    if len(items) > 10:
        raise ConfigError(
            f"brute force is capped at 10 items, got {len(items)}"
        )
    if not items:
        return 0
    best: List[int] = [len(items)]
    bins: List[List[GammaItem]] = []

    def assign(position: int) -> None:
        if position == len(items):
            best[0] = min(best[0], len(bins))
            return
        item = items[position]
        for packed in bins:
            packed.append(item)
            if robust_fits(packed, gamma, capacity):
                assign(position + 1)
            packed.pop()
        # Canonical set partitions: the item may also open exactly one
        # new bin (opening "the second empty bin" would be symmetric).
        bins.append([item])
        assign(position + 1)
        bins.pop()

    assign(0)
    return best[0]


def minimum_bins(
    items: Sequence[GammaItem], gamma: int, capacity: float
) -> int:
    """Exact minimum bin count via branch-and-bound.

    Items are branched largest-first (by worst-case size); the First-Fit
    solution primes the incumbent; identical partial bins are branched
    once; and the search stops early when the incumbent meets the
    nominal-volume lower bound.  Pure python, small-scale by design —
    the oracle scores heuristic optimality gaps on test instances, it is
    not a production planner.
    """
    _check_instance(items, gamma, capacity)
    if not items:
        return 0
    order = sorted(
        items,
        key=lambda item: (
            item.nominal + item.deviation, item.nominal, item.item_id,
        ),
        reverse=True,
    )
    incumbent = len(gamma_first_fit(order, gamma, capacity))
    nominal_total = sum(item.nominal for item in order)
    lower_bound = max(1, math.ceil(nominal_total / capacity - _EPS))
    if incumbent <= lower_bound:
        return incumbent
    best: List[int] = [incumbent]
    bins: List[List[GammaItem]] = []

    def branch(position: int) -> None:
        if len(bins) >= best[0]:
            return
        if position == len(order):
            best[0] = len(bins)
            return
        item = order[position]
        seen_signatures = set()
        for packed in bins:
            signature = tuple(sorted(
                (other.nominal, other.deviation) for other in packed
            ))
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            packed.append(item)
            if robust_fits(packed, gamma, capacity):
                branch(position + 1)
            packed.pop()
            if best[0] <= lower_bound:
                return
        if len(bins) + 1 < best[0]:
            bins.append([item])
            branch(position + 1)
            bins.pop()

    branch(0)
    return best[0]


# ----------------------------------------------------------------------
# seeded oracle instances and the optimality-gap report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GammaInstance:
    """A seeded bin-packing instance for the oracle battery."""

    seed: int
    gamma: int
    capacity: float
    items: Tuple[GammaItem, ...]


#: Instance count of the default oracle battery (tests, ``micro gamma``).
DEFAULT_ORACLE_INSTANCES = 30


def _instance_rng(seed: int) -> random.Random:
    """The ``gamma.oracle`` stream: one generator per instance seed."""
    return random.Random(derive_seed(seed, "gamma.oracle.instance"))


def seeded_instance(seed: int, max_items: int = 12) -> GammaInstance:
    """A deterministic random instance sized for the exact oracle."""
    if max_items < 2:
        raise ConfigError(f"max_items must be >= 2, got {max_items}")
    rng = _instance_rng(seed)
    count = rng.randint(3, max_items)
    capacity = 8192.0
    items = []
    for item_id in range(count):
        nominal = rng.uniform(0.10, 0.55) * capacity
        deviation = rng.uniform(0.0, 0.6) * (capacity - nominal)
        items.append(GammaItem(item_id, nominal, deviation))
    gamma = rng.randint(0, 3)
    return GammaInstance(
        seed=seed, gamma=gamma, capacity=capacity, items=tuple(items)
    )


def oracle_gap_report(
    instance_count: int = DEFAULT_ORACLE_INSTANCES, max_items: int = 12
) -> Dict[str, object]:
    """Score Γ-first-fit against the exact oracle on seeded instances."""
    if instance_count < 1:
        raise ConfigError(
            f"instance_count must be >= 1, got {instance_count}"
        )
    rows: List[Dict[str, object]] = []
    for seed in range(instance_count):
        instance = seeded_instance(seed, max_items=max_items)
        heuristic = len(gamma_first_fit(
            instance.items, instance.gamma, instance.capacity
        ))
        optimal = minimum_bins(
            instance.items, instance.gamma, instance.capacity
        )
        rows.append({
            "seed": instance.seed,
            "gamma": instance.gamma,
            "items": len(instance.items),
            "ff_bins": heuristic,
            "optimal_bins": optimal,
            "gap": heuristic - optimal,
        })
    gaps = [int(row["gap"]) for row in rows]
    return {
        "schema": "repro.gamma-oracle/1",
        "instances": rows,
        "summary": {
            "count": len(rows),
            "mean_gap": sum(gaps) / len(gaps),
            "max_gap": max(gaps),
            "optimal_fraction": gaps.count(0) / len(gaps),
        },
    }


def render_gap_report(report: Dict[str, object]) -> str:
    """The ``micro gamma`` table: per-instance gaps plus a summary."""
    rows = report["instances"]
    summary = report["summary"]
    assert isinstance(rows, list) and isinstance(summary, dict)
    lines = [
        "Gamma-robust first-fit vs exact branch-and-bound oracle",
        f"{'seed':>6} {'gamma':>6} {'items':>6} "
        f"{'FF bins':>8} {'optimal':>8} {'gap':>4}",
    ]
    for row in rows:
        lines.append(
            f"{row['seed']:>6} {row['gamma']:>6} {row['items']:>6} "
            f"{row['ff_bins']:>8} {row['optimal_bins']:>8} {row['gap']:>4}"
        )
    lines.append(
        f"instances: {summary['count']}  "
        f"mean gap: {summary['mean_gap']:.3f}  "
        f"max gap: {summary['max_gap']}  "
        f"optimal: {100.0 * summary['optimal_fraction']:.1f}%"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# farm-facing planner
# ----------------------------------------------------------------------


class DemandIntervalModel:
    """Deterministic per-VM demand intervals (``gamma.intervals``).

    The nominal demand ``uc`` is the working-set distribution's mean
    (capped at the VM's memory).  The deviation ``ur`` covers a per-VM
    fraction of the remaining headroom, drawn once per VM id from its
    own derived seed — see the module docstring for the contract.
    """

    #: Bounds of the per-VM spike fraction of the headroom.
    SPIKE_MIN = 0.25
    SPIKE_MAX = 0.75

    __slots__ = ("_sampler", "_root_seed", "_cache")

    def __init__(
        self, working_sets: WorkingSetSampler, root_seed: int
    ) -> None:
        self._sampler = working_sets
        self._root_seed = root_seed
        self._cache: Dict[int, Tuple[float, float]] = {}

    def interval(self, vm: VirtualMachine) -> Tuple[float, float]:
        """``(nominal, deviation)`` MiB for ``vm``; pure in (seed, id)."""
        cached = self._cache.get(vm.vm_id)
        if cached is not None:
            return cached
        memory = vm.memory_mib
        nominal = self._sampler.expected_mib()
        if nominal > memory:
            nominal = memory
        fraction = random.Random(derive_seed(
            self._root_seed, f"gamma.intervals:{vm.vm_id}"
        )).random()
        spike = self.SPIKE_MIN + (self.SPIKE_MAX - self.SPIKE_MIN) * fraction
        deviation = spike * (memory - nominal)
        result = (nominal, deviation)
        self._cache[vm.vm_id] = result
        return result


class GammaRobustPlanner(GreedyVacatePlanner):
    """The greedy vacate planner under the Γ-robust fit rule.

    It supplies only its demand model.  An idle VM is planned at its
    nominal working set (the sampler mean, which also orders the
    inherited vacate queue) with its interval deviation as spike room;
    a resident partial VM brings the spike room it has left to
    compaction.  Destinations are first fit, so the planner holds no
    RNG and draws nothing.
    """

    def __init__(
        self,
        policy: PolicySpec,
        working_sets: WorkingSetSampler,
        intervals: DemandIntervalModel,
        min_idle_intervals: int = 1,
    ) -> None:
        if policy.gamma is None:
            raise ConfigError(f"policy {policy.name!r} sets no gamma")
        super().__init__(policy, working_sets, None, min_idle_intervals,
                         DestinationStrategy.FIRST_FIT)
        self.intervals = intervals
        self.gamma = policy.gamma

    def _idle_demand(self, vm: VirtualMachine) -> Tuple[float, float]:
        return self.intervals.interval(vm)

    def _resident_room(self, vm: VirtualMachine) -> float:
        """A partial VM's interval maximum (capped at full memory) minus
        what it already holds.  Full VMs hold everything and can never
        spike further."""
        if vm.residency is not Residency.PARTIAL:
            return 0.0
        nominal, deviation = self.intervals.interval(vm)
        spike = min(nominal + deviation, vm.memory_mib) - vm.resident_mib
        return spike if spike > 0.0 else 0.0
