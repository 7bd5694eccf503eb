"""Planners beyond the paper's.

:mod:`repro.policies.gamma` holds the Γ-robust planner, which the
cluster manager builds for any :class:`~repro.core.policies.PolicySpec`
with a ``gamma`` (``GammaRobust@Γ``), and the interval bin-packing core
and exact oracle behind its tests and the ``micro gamma`` report.
"""

from repro.policies.gamma import (
    GammaInstance,
    GammaItem,
    GammaRobustPlanner,
    DemandIntervalModel,
    brute_force_minimum_bins,
    gamma_first_fit,
    minimum_bins,
    oracle_gap_report,
    render_gap_report,
    robust_fits,
    robust_load,
    seeded_instance,
)

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
