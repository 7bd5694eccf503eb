"""Deliberately defective engines: the battery's power regression tests.

A statistical-equivalence harness is only trustworthy if it *rejects
broken engines* — acceptance alone could mean the tests are vacuous.
Each :class:`Mutant` here perturbs a constructed, unrun
:class:`~repro.farm.simulation.FarmSimulation` with one specific defect
an engine rewrite could plausibly introduce: miscalibrated power,
dropped operations, skipped charges, biased draws.
``tests/test_equiv_power.py`` asserts every registered mutant is
rejected — and the identity mutant accepted — at the committed
ensemble size.

Each defect is a one-method override: a
:class:`~repro.farm.planes.FarmAccountingLedger` subclass installed as
``sim.ledger``, one :class:`~repro.core.manager.ClusterManager` method
wrapped on ``sim.manager``, or a biased traffic stream.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Type

from repro.core.plan import (
    ActivationAction,
    ActivationDecision,
    ConsolidationPlan,
)
from repro.errors import ConfigError
from repro.farm.planes import FarmAccountingLedger
from repro.farm.simulation import FarmSimulation
from repro.simulator.randomness import derive_seed
from repro.vm.machine import VirtualMachine

__all__ = [
    "Mutant",
    "MUTANTS",
    "mutant_names",
    "mutant_by_name",
    "apply_mutant",
    "IDENTITY",
]


@dataclass(frozen=True)
class Mutant:
    """One registered engine perturbation.

    ``apply`` mutates a constructed-but-unrun simulation in place;
    ``should_reject`` is what the battery must conclude about it.
    """

    name: str
    description: str
    apply: Callable[[FarmSimulation], None]
    should_reject: bool = True
    #: Policy whose decision path the perturbation lives on (``None`` =
    #: any).  ``rehoming-refused`` is a no-op unless the policy sets
    #: ``rehome_on_exhaustion``, so its self-test must run under NewHome.
    policy: Optional[str] = None


# ----------------------------------------------------------------------
# the perturbations
# ----------------------------------------------------------------------


class _WattsPlusOne(FarmAccountingLedger):
    """Every piecewise power segment is billed one watt high."""

    def set_power(self, entity: Hashable, watts: float, now: float) -> None:
        super().set_power(entity, watts + 1.0, now)


class _SleepStateDropped(FarmAccountingLedger):
    """Sleeping hosts are recorded as powered in the state ledger."""

    def set_state(self, entity: Hashable, state: str, now: float) -> None:
        super().set_state(
            entity, "powered" if state == "sleeping" else state, now
        )


class _DemandTrafficSkipped(FarmAccountingLedger):
    """Consolidation episodes never charge their demand-fault bytes."""

    def record_on_demand(self, demand_mib: float) -> None:
        pass


class _SasUploadHalved(FarmAccountingLedger):
    """Partial migrations charge half of the SAS memory upload."""

    def record_partial_migration(
        self, descriptor_mib: float, upload_mib: float
    ) -> None:
        super().record_partial_migration(descriptor_mib, upload_mib * 0.5)


class _BiasedUniform(random.Random):
    """A traffic stream whose uniform draws are warped toward 0.

    ``random.Random.gauss`` builds each pair of variates by Box–Muller
    over two ``random()`` draws; the warp ``u -> u*u`` concentrates the
    phase draw near 0, where the cosine is positive, so the gaussians
    acquire a systematic +0.22-sigma mean shift and every sampled
    traffic volume runs hot.  Seeded at construction from the engine's
    own derived substream, so the defect is a pure function of the run
    seed.
    """

    def random(self) -> float:
        # The receiver *is* a seeded Random (constructed from a derived
        # substream below); flow cannot attribute draws through super().
        u = super().random()  # repro: noqa[FLOW101]
        return u * u


def _ledger_mutant(
    ledger_cls: Type[FarmAccountingLedger],
) -> Callable[[FarmSimulation], None]:
    """Install a fresh ``ledger_cls`` ledger over the unrun result.

    Nothing writes to the ledger before ``run``, so the replacement
    starts from the same empty state as the ledger it displaces.
    """

    def apply(sim: FarmSimulation) -> None:
        sim.ledger = ledger_cls(sim.result)

    return apply


def _apply_dropped_vacation_migration(sim: FarmSimulation) -> None:
    """The last migration of every vacation plan is silently dropped."""
    plan_consolidation = sim.manager.plan_consolidation

    def dropped(compact_consolidation: bool = True) -> ConsolidationPlan:
        plan = plan_consolidation(compact_consolidation=compact_consolidation)
        vacations = [
            dataclasses.replace(
                vacation, migrations=vacation.migrations[:-1]
            )
            for vacation in plan.vacations
            if len(vacation.migrations) > 1
        ]
        return dataclasses.replace(plan, vacations=vacations)

    sim.manager.plan_consolidation = dropped


def _apply_rehoming_refused(sim: FarmSimulation) -> None:
    """NewHome-style re-homings degrade into waking the home host."""
    decide_activation = sim.manager.decide_activation

    def refused(vm: VirtualMachine) -> ActivationDecision:
        decision = decide_activation(vm)
        if decision.action is ActivationAction.MIGRATE_NEW_HOME:
            return ActivationDecision(
                vm_id=decision.vm_id,
                action=ActivationAction.WAKE_HOME_RETURN_ALL,
                target_host_id=vm.home_id,
            )
        return decision

    sim.manager.decide_activation = refused


def _apply_traffic_draw_biased(sim: FarmSimulation) -> None:
    # Same derivation the engine itself uses for the "traffic" stream,
    # so the mutant stays a pure function of the run seed — only the
    # gaussian scale is defective.
    sim._traffic_rng = _BiasedUniform(derive_seed(sim.seed, "traffic"))


def _apply_identity(sim: FarmSimulation) -> None:
    pass


#: Registration order is presentation order in reports and self-tests.
_REGISTRY: Tuple[Mutant, ...] = (
    Mutant(
        name="identity",
        description="no perturbation (the battery must accept this)",
        apply=_apply_identity,
        should_reject=False,
    ),
    Mutant(
        name="watts-plus-one",
        description="all piecewise power billed +1 W (calibration bias)",
        apply=_ledger_mutant(_WattsPlusOne),
    ),
    Mutant(
        name="sleep-state-dropped",
        description="sleeping hosts logged as powered in the state ledger",
        apply=_ledger_mutant(_SleepStateDropped),
    ),
    Mutant(
        name="demand-traffic-skipped",
        description="on-demand page traffic never charged",
        apply=_ledger_mutant(_DemandTrafficSkipped),
    ),
    Mutant(
        name="sas-upload-halved",
        description="partial migrations charge half the SAS upload",
        apply=_ledger_mutant(_SasUploadHalved),
    ),
    Mutant(
        name="dropped-vacation-migration",
        description="each vacation plan silently loses its last migration",
        apply=_apply_dropped_vacation_migration,
    ),
    Mutant(
        name="rehoming-refused",
        description="MIGRATE_NEW_HOME decisions degrade into home wakes",
        apply=_apply_rehoming_refused,
        policy="NewHome",
    ),
    Mutant(
        name="traffic-draw-biased",
        description="traffic-volume draws systematically biased high",
        apply=_apply_traffic_draw_biased,
    ),
)

MUTANTS: Dict[str, Mutant] = {mutant.name: mutant for mutant in _REGISTRY}

IDENTITY = MUTANTS["identity"]

def mutant_names() -> List[str]:
    """Registered mutant names, in registration order."""
    return [mutant.name for mutant in _REGISTRY]


def mutant_by_name(name: str) -> Mutant:
    """Look up one registered mutant."""
    mutant = MUTANTS.get(name)
    if mutant is None:
        raise ConfigError(
            f"unknown mutant {name!r}; choose from {mutant_names()}"
        )
    return mutant


def apply_mutant(sim: FarmSimulation, mutant: Mutant) -> FarmSimulation:
    """Perturb a constructed, unrun simulation; returns it for chaining."""
    mutant.apply(sim)
    return sim
