"""The cluster manager's decision logic (§3.1-3.2, §4.1).

The :class:`ClusterManager` is deliberately free of timing concerns: it
inspects cluster state and emits *decisions* (plans).  The execution
engine — :mod:`repro.farm` for trace-driven days, or a real agent layer
in a deployment — owns clocks, latencies, and energy.  This split keeps
every policy decision unit-testable against hand-built cluster states.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cluster.topology import Cluster
from repro.core.placement import DestinationStrategy, GreedyVacatePlanner
from repro.core.plan import (
    ActivationAction,
    ActivationDecision,
    ConsolidationPlan,
    ExchangePlan,
)
from repro.core.strategies import PolicyLike, resolve_strategy
from repro.errors import MigrationError
from repro.obs.events import CAT_POLICY
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.gamma import DemandIntervalModel, GammaRobustPlanner
from repro.simulator.randomness import RngStreams
from repro.vm.machine import VirtualMachine
from repro.vm.state import Residency
from repro.vm.workingset import WorkingSetSampler


class ClusterManager:
    """Makes consolidation, exchange, and activation decisions."""

    def __init__(
        self,
        cluster: Cluster,
        policy: PolicyLike,
        working_sets: Optional[WorkingSetSampler] = None,
        rng: Optional[random.Random] = None,
        min_idle_intervals: int = 1,
        strategy: DestinationStrategy = DestinationStrategy.RANDOM,
        tracer: Optional[Tracer] = None,
        streams: Optional[RngStreams] = None,
    ) -> None:
        self.cluster = cluster
        self.policy = resolve_strategy(policy)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.working_sets = (
            working_sets if working_sets is not None else WorkingSetSampler()
        )
        self.rng = rng if rng is not None else random.Random(0)
        self.min_idle_intervals = min_idle_intervals
        if self.policy.gamma is None:
            self.planner = GreedyVacatePlanner(
                self.policy, self.working_sets, self.rng,
                min_idle_intervals, strategy,
            )
        else:
            # Intervals are derived from the root seed, not drawn from
            # any stream: robust placement is first fit and draws nothing.
            intervals = DemandIntervalModel(
                self.working_sets, streams.seed if streams is not None else 0
            )
            self.planner = GammaRobustPlanner(
                self.policy, self.working_sets, intervals, min_idle_intervals
            )

    # -- periodic planning ------------------------------------------------

    def plan_consolidation(
        self, compact_consolidation: bool = True
    ) -> ConsolidationPlan:
        """Search for a placement that powers down more hosts (§3.1).

        Returns an empty plan when no host can be powered down — the
        manager only migrates when doing so can save energy.
        """
        plan = self.planner.plan(
            self.cluster, compact_consolidation=compact_consolidation
        )
        if self.tracer.enabled and not plan.is_empty:
            self.tracer.event(
                "policy.consolidation_plan", CAT_POLICY,
                vacations=len(plan.vacations),
                compactions=len(plan.compactions),
            )
        return plan

    def plan_exchanges(self) -> List[ExchangePlan]:
        """Find FulltoPartial exchanges: consolidated full VMs that have
        turned idle and should be swapped for partial VMs (§3.2).

        Empty under policies without the exchange refinement.
        """
        if not self.policy.exchange_idle_full:
            return []
        exchanges: List[ExchangePlan] = []
        for host in self.cluster.consolidation_hosts:
            if not host.is_powered:
                continue
            for vm in host.vms():
                if vm.residency is not Residency.FULL or vm.is_active:
                    continue
                if vm.idle_intervals < self.min_idle_intervals:
                    continue
                working_set = min(
                    self.working_sets.sample(self.rng), vm.memory_mib
                )
                exchanges.append(
                    ExchangePlan(
                        vm_id=vm.vm_id,
                        consolidation_host_id=host.host_id,
                        origin_home_id=vm.origin_home_id,
                        working_set_mib=working_set,
                    )
                )
        if self.tracer.enabled and exchanges:
            self.tracer.event(
                "policy.exchange_plan", CAT_POLICY, exchanges=len(exchanges)
            )
        return exchanges

    # -- activation handling ------------------------------------------------

    def decide_activation(self, vm: VirtualMachine) -> ActivationDecision:
        """Choose the response to an idle-to-active transition (§3.2).

        Active VMs must hold their full memory image to perform well
        (Figure 6), so a partial VM must become full somewhere: in place
        if its consolidation host has room, on a new powered home under
        NewHome, and otherwise by waking its home host — which then takes
        back *all* of its VMs, since a woken host makes its partial
        replicas pure overhead.
        """
        if vm.residency is Residency.FULL:
            return self._traced(ActivationDecision(
                vm.vm_id, ActivationAction.ALREADY_FULL, vm.host_id
            ))

        host = self.cluster.host(vm.host_id)
        if vm.working_set_mib is None:
            raise MigrationError(f"partial VM {vm.vm_id} lacks a working set")
        remaining_mib = vm.memory_mib - vm.working_set_mib

        if self.policy.convert_in_place and host.can_fit(remaining_mib):
            return self._traced(ActivationDecision(
                vm.vm_id, ActivationAction.CONVERT_IN_PLACE, host.host_id
            ))

        if self.policy.rehome_on_exhaustion:
            destination = self._find_new_home(vm)
            if destination is not None:
                return self._traced(ActivationDecision(
                    vm.vm_id, ActivationAction.MIGRATE_NEW_HOME, destination
                ))

        return self._traced(ActivationDecision(
            vm.vm_id, ActivationAction.WAKE_HOME_RETURN_ALL, vm.home_id
        ))

    def _traced(self, decision: ActivationDecision) -> ActivationDecision:
        """Emit the decision as a policy event (observation only)."""
        if self.tracer.enabled:
            self.tracer.event(
                "policy.activation", CAT_POLICY,
                vm=decision.vm_id,
                action=decision.action.value,
                target=decision.target_host_id,
            )
        return decision

    def reroute_activation(self, vm: VirtualMachine) -> Optional[int]:
        """A fallback destination when the VM's home host will not wake.

        Used by fault handling: when every wake retry of the home failed,
        the activation is rerouted to any powered host with room for the
        full VM.  Returns ``None`` when no such host exists (the caller
        must then force the home awake regardless).
        """
        return self._find_new_home(vm)

    def _find_new_home(self, vm: VirtualMachine) -> Optional[int]:
        """A powered host (compute or consolidation) that fits the full VM."""
        candidates = [
            host.host_id
            for host in self.cluster
            if host.is_powered
            and host.host_id != vm.host_id
            and host.can_fit(vm.memory_mib)
        ]
        if not candidates:
            return None
        return self.rng.choice(candidates)
