"""One energy meter: piecewise power, power-state time, per-state energy."""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.errors import SimulationError

#: Pseudo-state bucket for lump energy charged outside the piecewise
#: power model (the no-memory-server wake tax).  Keeping it a distinct
#: key makes ``sum(state_energy_j().values()) == total_joules()`` exact.
SURCHARGE_STATE = "surcharge"


class _Record:
    """One entity: its open spans and its closed sums."""

    __slots__ = (
        "state", "watts", "power_since", "state_since", "edge_since",
        "joules", "seconds",
    )

    def __init__(
        self, state: Optional[str], watts: float, now: float,
        joules: float = 0.0,
    ) -> None:
        self.state = state
        self.watts = watts
        #: Starts of the open power span, state span, and segment (the
        #: span since the last edge of either kind).
        self.power_since = now
        self.state_since = now
        self.edge_since = now
        self.joules = joules
        #: Closed seconds per state.
        self.seconds: Dict[str, float] = {}


class EnergyAccountant:
    """Integrates energy and power-state time for a set of entities.

    Each entity (host, memory server, switch, ...) reports power changes
    through :meth:`set_power` and power-state changes through
    :meth:`set_state`.  The meter keeps three sums, each closed where
    its own span ends:

    * joules per entity, ``watts x elapsed-seconds`` closed at power
      edges;
    * seconds per (entity, state), closed at state edges;
    * joules per state, closed at edges of either kind.

    Call :meth:`finish` once at the simulation horizon to close the
    open spans.
    """

    __slots__ = ("_records", "_state_joules")

    def __init__(self) -> None:
        #: Insertion-ordered: ``total_joules`` sums in first-seen order.
        self._records: Dict[Hashable, _Record] = {}
        self._state_joules: Dict[str, float] = {}

    def set_power(self, entity: Hashable, watts: float, now: float) -> None:
        """Record that ``entity`` draws ``watts`` from time ``now`` on."""
        if watts < 0.0:
            raise SimulationError(f"negative power {watts} W for {entity!r}")
        record = self._records.get(entity)
        if record is None:
            self._records[entity] = _Record(None, watts, now)
            return
        since = record.edge_since
        if now < since:
            raise SimulationError(
                f"power update for {entity!r} at {now} precedes {since}"
            )
        before = record.watts
        record.joules += before * (now - record.power_since)
        state = record.state
        if state is not None and now > since:
            state_joules = self._state_joules
            state_joules[state] = (
                state_joules.get(state, 0.0) + before * (now - since)
            )
        record.watts = watts
        record.power_since = now
        record.edge_since = now

    def set_state(self, entity: Hashable, state: str, now: float) -> None:
        """Record that ``entity`` enters ``state`` at time ``now``."""
        record = self._records.get(entity)
        if record is None:
            self._records[entity] = _Record(state, 0.0, now)
            return
        if now < record.edge_since:
            raise SimulationError(
                f"state update for {entity!r} at {now} precedes "
                f"{record.edge_since}"
            )
        self._close_state(record, now)
        record.state = state

    def _close_state(self, record: _Record, now: float) -> None:
        """Close the record's state span and segment at ``now``."""
        state = record.state
        if state is not None:
            seconds = record.seconds
            seconds[state] = (
                seconds.get(state, 0.0) + (now - record.state_since)
            )
            since = record.edge_since
            if now > since:
                state_joules = self._state_joules
                state_joules[state] = (
                    state_joules.get(state, 0.0)
                    + record.watts * (now - since)
                )
        record.state_since = now
        record.edge_since = now

    def add_energy(self, entity: Hashable, joules: float) -> None:
        """Add a lump of energy outside the piecewise-power model.

        Used for analytically-computed surcharges (e.g. the wake-up tax
        a sleeping host pays to serve page requests when it lacks a
        memory server) that would be wasteful to express as thousands of
        tiny power segments.  The lump counts under
        :data:`SURCHARGE_STATE`.
        """
        if joules < 0.0:
            raise SimulationError(f"negative energy {joules} J for {entity!r}")
        record = self._records.get(entity)
        if record is None:
            self._records[entity] = _Record(None, 0.0, 0.0, joules)
        else:
            record.joules += joules
        state_joules = self._state_joules
        state_joules[SURCHARGE_STATE] = (
            state_joules.get(SURCHARGE_STATE, 0.0) + joules
        )

    def finish(self, now: float) -> None:
        """Close all open spans at the simulation horizon ``now``."""
        for record in self._records.values():
            if now < record.edge_since:
                raise SimulationError("finish time precedes an open span")
            record.joules += record.watts * (now - record.power_since)
            record.power_since = now
            self._close_state(record, now)

    def energy_joules(self, entity: Hashable) -> float:
        """Accumulated energy for one entity (closed spans only)."""
        record = self._records.get(entity)
        return 0.0 if record is None else record.joules

    def total_joules(self) -> float:
        """Accumulated energy over all entities."""
        return sum(record.joules for record in self._records.values())

    def entities(self):
        """All entities that ever reported power, state or energy."""
        return list(self._records)

    def state_duration(self, entity: Hashable, state: str) -> float:
        """Seconds ``entity`` spent in ``state`` (closed spans only)."""
        record = self._records.get(entity)
        return 0.0 if record is None else record.seconds.get(state, 0.0)

    def state_time_s(self) -> Dict[str, float]:
        """Total seconds per power state, summed over all entities."""
        totals: Dict[str, float] = {}
        for entity in sorted(self._records, key=str):
            seconds = self._records[entity].seconds
            for state in sorted(seconds):
                totals[state] = totals.get(state, 0.0) + seconds[state]
        return dict(sorted(totals.items()))

    def state_energy_j(self) -> Dict[str, float]:
        """Energy per power state (plus :data:`SURCHARGE_STATE`)."""
        return dict(sorted(self._state_joules.items()))
