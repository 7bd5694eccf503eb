"""The farm's accounting ledger (DESIGN.md §16).

:class:`FarmAccountingLedger` is where
:class:`~repro.farm.simulation.FarmSimulation` records everything about
a day: energy (piecewise power and lump surcharges), power-state
residence time, migration traffic, operation counters, and fault
counters.  Decisions never read it back.

It *is* an :class:`~repro.energy.accounting.EnergyAccountant`, the one
meter that integrates energy, per-state seconds and per-state energy
(which feeds the run fingerprints of :mod:`repro.equiv`), and adds only
the result's own traffic, counter and fault records.
"""

from __future__ import annotations

from repro.energy.accounting import SURCHARGE_STATE, EnergyAccountant
from repro.farm.metrics import FarmResult
from repro.migration.traffic import TrafficCategory

__all__ = [
    "FarmAccountingLedger",
    "SURCHARGE_STATE",
]

# The ledger positions record_* charges, read once (DESIGN.md §12).
_DESCRIPTOR_INDEX = TrafficCategory.PARTIAL_DESCRIPTOR.ledger_index
_UPLOAD_INDEX = TrafficCategory.MEMORY_UPLOAD_SAS.ledger_index
_ON_DEMAND_INDEX = TrafficCategory.ON_DEMAND_PAGES.ledger_index


class FarmAccountingLedger(EnergyAccountant):
    """Energy, state time, traffic, and counters for one simulated day.

    Energy and state edges land in the meter in call order, so record
    creation order, and with it the float summation order of
    :meth:`total_joules`, follows the engine's writes.
    """

    __slots__ = ("result", "traffic", "counters", "faults")

    def __init__(self, result: FarmResult) -> None:
        super().__init__()
        self.result = result
        self.traffic = result.traffic
        self.counters = result.counters
        self.faults = result.faults

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
        mib[_DESCRIPTOR_INDEX] += descriptor_mib
        events[_DESCRIPTOR_INDEX] += 1
        mib[_UPLOAD_INDEX] += upload_mib
        events[_UPLOAD_INDEX] += 1

    def record_on_demand(self, demand_mib: float) -> None:
        """Charge one consolidation episode's demand-fault traffic."""
        ledger = self.traffic
        ledger._mib[_ON_DEMAND_INDEX] += demand_mib
        ledger._events[_ON_DEMAND_INDEX] += 1
