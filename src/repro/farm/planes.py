"""The farm's accounting ledger (DESIGN.md §16).

:class:`FarmAccountingLedger` is where
:class:`~repro.farm.simulation.FarmSimulation` records everything about
a day: energy (piecewise power and lump surcharges), power-state
residence time, migration traffic, operation counters, and fault
counters.  Decisions never read it back.

It wraps one :class:`~repro.energy.accounting.EnergyAccountant`, one
:class:`~repro.energy.accounting.StateTimeTracker`, and the result's
own traffic/counter/fault records.  On top of those it meters energy
*per power state* (powered/sleeping/suspending/resuming plus transition
surcharges).  That metering is separate and additive, so it never
perturbs the totals, and it feeds the per-state energy split of
:mod:`repro.equiv`'s run fingerprints.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.energy.accounting import EnergyAccountant, StateTimeTracker
from repro.farm.metrics import FarmResult
from repro.migration.traffic import TrafficCategory

__all__ = [
    "FarmAccountingLedger",
    "SURCHARGE_STATE",
]

#: Pseudo-state bucket for lump energy charged outside the piecewise
#: power model (the no-memory-server wake tax).  Keeping it a distinct
#: key makes ``sum(state_energy_j.values()) == total_joules()`` exact.
SURCHARGE_STATE = "surcharge"


class FarmAccountingLedger:
    """Energy, state time, traffic, and counters for one simulated day.

    Energy and state writes go to the accountant and tracker in call
    order, so meter creation order, and with it the float summation
    order of :meth:`total_joules`, follows the engine's writes.  Each
    entity also carries a ``(state, watts, since)`` segment closed on
    every state or power edge, with the closed joules accumulated per
    state name.
    """

    __slots__ = (
        "result",
        "accountant",
        "tracker",
        "traffic",
        "counters",
        "faults",
        "_segments",
        "_state_energy",
    )

    def __init__(self, result: FarmResult) -> None:
        self.result = result
        self.accountant = EnergyAccountant()
        self.tracker = StateTimeTracker()
        self.traffic = result.traffic
        self.counters = result.counters
        self.faults = result.faults
        #: entity -> [state-or-None, watts, since]; a list, not a tuple,
        #: because the hot path updates it in place.
        self._segments: Dict[Hashable, List] = {}
        self._state_energy: Dict[str, float] = {}

    # -- energy ---------------------------------------------------------

    def set_power(self, entity: Hashable, watts: float, now: float) -> None:
        """Entity draws ``watts`` from ``now`` on (piecewise-constant)."""
        self.accountant.set_power(entity, watts, now)
        segment = self._segments.get(entity)
        if segment is None:
            self._segments[entity] = [None, watts, now]
            return
        self._close_segment(segment, now)
        segment[1] = watts

    def add_energy(self, entity: Hashable, joules: float) -> None:
        """Charge a lump of energy outside the piecewise model."""
        self.accountant.add_energy(entity, joules)
        self._state_energy[SURCHARGE_STATE] = (
            self._state_energy.get(SURCHARGE_STATE, 0.0) + joules
        )

    def set_state(self, entity: Hashable, state: str, now: float) -> None:
        """Entity enters power ``state`` at ``now``."""
        self.tracker.set_state(entity, state, now)
        segment = self._segments.get(entity)
        if segment is None:
            self._segments[entity] = [state, 0.0, now]
            return
        self._close_segment(segment, now)
        segment[0] = state

    def _close_segment(self, segment: List, now: float) -> None:
        state, watts, since = segment
        if state is not None and now > since:
            self._state_energy[state] = (
                self._state_energy.get(state, 0.0) + watts * (now - since)
            )
        segment[2] = now

    # -- traffic --------------------------------------------------------

    def record_partial_migration(
        self, descriptor_mib: float, upload_mib: float
    ) -> None:
        """Charge one partial migration's descriptor + SAS upload."""
        # Direct backing-list writes (the sampled volumes are floored at
        # a tenth of their positive means upstream, so the ``add``
        # negativity check cannot fire).
        ledger = self.traffic
        mib = ledger._mib
        events = ledger._events
        index = TrafficCategory.PARTIAL_DESCRIPTOR.ledger_index
        mib[index] += descriptor_mib
        events[index] += 1
        index = TrafficCategory.MEMORY_UPLOAD_SAS.ledger_index
        mib[index] += upload_mib
        events[index] += 1

    def record_on_demand(self, demand_mib: float) -> None:
        """Charge one consolidation episode's demand-fault traffic."""
        ledger = self.traffic
        index = TrafficCategory.ON_DEMAND_PAGES.ledger_index
        ledger._mib[index] += demand_mib
        ledger._events[index] += 1

    # -- lifecycle and read-back ---------------------------------------

    def finish(self, horizon: float) -> None:
        """Close every open segment at the simulation horizon."""
        self.accountant.finish(horizon)
        self.tracker.finish(horizon)
        for entity in self._segments:
            self._close_segment(self._segments[entity], horizon)

    def total_joules(self) -> float:
        """Accumulated energy over all entities (after :meth:`finish`)."""
        return self.accountant.total_joules()

    def energy_joules(self, entity: Hashable) -> float:
        """Accumulated energy of one entity."""
        return self.accountant.energy_joules(entity)

    def state_duration(self, entity: Hashable, state: str) -> float:
        """Seconds ``entity`` spent in ``state``."""
        return self.tracker.duration(entity, state)

    def state_time_s(self) -> Dict[str, float]:
        """Total seconds per power state, summed over all entities."""
        totals: Dict[str, float] = {}
        for (_entity, state), seconds in sorted(
            self.tracker._durations.items(),
            key=lambda item: (str(item[0][0]), item[0][1]),
        ):
            totals[state] = totals.get(state, 0.0) + seconds
        return dict(sorted(totals.items()))

    def state_energy_j(self) -> Dict[str, float]:
        """Energy per power state (plus :data:`SURCHARGE_STATE`)."""
        return dict(sorted(self._state_energy.items()))
