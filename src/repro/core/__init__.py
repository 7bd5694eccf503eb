"""The Oasis cluster manager — the paper's primary contribution (§3).

The manager decides *when* to migrate (periodic planning intervals),
*how* (full pre-copy migration for active VMs, partial migration for
idle VMs), *where* (greedy vacate with random consolidation
destinations), and when hosts sleep or wake.  Four policies govern what
happens when a consolidated VM changes state (§3.2):

* ``OnlyPartial`` — partial migration only (the Jettison approach);
* ``Default``    — hybrid; on capacity exhaustion wake the home and
  return all of its VMs;
* ``FulltoPartial`` — Default plus exchanging consolidated full VMs that
  turn idle for partial ones (the paper's best policy);
* ``NewHome``    — FulltoPartial plus re-homing activating VMs to any
  powered host before falling back to waking the home.

``GammaRobust@Γ`` (:func:`gamma_robust`) handles events like Default and
places VMs Γ-robustly.
"""

from repro.core.policies import (
    PolicySpec,
    ONLY_PARTIAL,
    DEFAULT,
    FULL_TO_PARTIAL,
    NEW_HOME,
    ALL_POLICIES,
    gamma_robust,
    policy_by_name,
    policy_names,
)
from repro.core.plan import (
    ActivationAction,
    ActivationDecision,
    ConsolidationPlan,
    ExchangePlan,
    HostVacatePlan,
    MigrationMode,
    PlannedMigration,
)
from repro.core.placement import GreedyVacatePlanner, DestinationStrategy
from repro.core.strategies import PolicyLike, resolve_strategy
from repro.core.manager import ClusterManager

__all__ = [
    "PolicySpec",
    "ONLY_PARTIAL",
    "DEFAULT",
    "FULL_TO_PARTIAL",
    "NEW_HOME",
    "ALL_POLICIES",
    "gamma_robust",
    "policy_by_name",
    "policy_names",
    "ActivationAction",
    "ActivationDecision",
    "ConsolidationPlan",
    "ExchangePlan",
    "HostVacatePlan",
    "MigrationMode",
    "PlannedMigration",
    "GreedyVacatePlanner",
    "DestinationStrategy",
    "PolicyLike",
    "resolve_strategy",
    "ClusterManager",
]
