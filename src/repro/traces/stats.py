"""Aggregate statistics over trace ensembles.

These are the quantities the paper reports about its trace population and
that our synthetic generator is calibrated against (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.traces.sampler import TraceEnsemble, partition_users
from repro.units import INTERVALS_PER_DAY

_HOURS_PER_INTERVAL = 24.0 / INTERVALS_PER_DAY


@dataclass(frozen=True)
class EnsembleStats:
    """Summary statistics of one trace ensemble."""

    users: int
    mean_active_fraction: float
    peak_concurrent: int
    peak_concurrent_fraction: float
    peak_hour: float
    trough_hour: float
    all_idle_fraction_per_30: float
    mean_transitions_per_user: float

    def __str__(self) -> str:
        return (
            f"users={self.users} "
            f"mean_active={self.mean_active_fraction:.1%} "
            f"peak={self.peak_concurrent} ({self.peak_concurrent_fraction:.1%}) "
            f"@ {self.peak_hour:.2f} h, trough @ {self.trough_hour:.2f} h, "
            f"all-idle(30)={self.all_idle_fraction_per_30:.1%}, "
            f"transitions/user={self.mean_transitions_per_user:.1f}"
        )


def all_idle_fraction(groups) -> float:
    """Fraction of intervals during which *every* user of a group is idle,
    averaged over the supplied groups.

    With groups of 30 this is the paper's "all of the VMs assigned to a
    home host are simultaneously idle only 13% of the time" statistic.
    """
    if not groups:
        raise ValueError("need at least one group")
    total = 0.0
    for group in groups:
        idle_intervals = 0
        for interval in range(INTERVALS_PER_DAY):
            if not any(trace.intervals[interval] for trace in group):
                idle_intervals += 1
        total += idle_intervals / INTERVALS_PER_DAY
    return total / len(groups)


def smoothed_trough_hour(counts: List[int], window: int = 12) -> float:
    """Hour of day at the minimum of a smoothed concurrency series.

    A centred moving average (default one hour wide) removes single-interval
    noise before locating the trough, mirroring how one reads Figure 7.
    """
    smoothed = []
    half = window // 2
    for index in range(len(counts)):
        lo = max(0, index - half)
        hi = min(len(counts), index + half + 1)
        smoothed.append(sum(counts[lo:hi]) / (hi - lo))
    trough_index = min(range(len(smoothed)), key=smoothed.__getitem__)
    return trough_index * _HOURS_PER_INTERVAL


def compute_ensemble_stats(
    ensemble: TraceEnsemble, host_group_size: int = 30
) -> EnsembleStats:
    """Compute the calibration statistics for one ensemble."""
    counts = ensemble.concurrent_active()
    peak = max(counts)
    peak_index = counts.index(peak)
    users = len(ensemble)
    groups = partition_users(ensemble, host_group_size)
    full_groups = [group for group in groups if len(group) == host_group_size]
    mean_active = sum(trace.active_fraction for trace in ensemble) / users
    transitions = sum(trace.transitions for trace in ensemble) / users
    return EnsembleStats(
        users=users,
        mean_active_fraction=mean_active,
        peak_concurrent=peak,
        peak_concurrent_fraction=peak / users,
        peak_hour=peak_index * _HOURS_PER_INTERVAL,
        trough_hour=smoothed_trough_hour(counts),
        all_idle_fraction_per_30=all_idle_fraction(full_groups or groups),
        mean_transitions_per_user=transitions,
    )
