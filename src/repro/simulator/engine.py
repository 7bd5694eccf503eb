"""The discrete-event simulation engine."""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.events import CAT_SIM
from repro.obs.tracer import NULL_TRACER, Tracer


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Time starts at zero and only moves forward.  Callbacks scheduled for
    the same instant run in the order they were scheduled.  Callbacks may
    schedule further events (including at the current instant).

    An optional :class:`~repro.obs.Tracer` wraps every fired callback in
    a ``sim.event`` span (labelled with the event's schedule label), so
    a recorded trace shows the kernel's dispatch timeline with each
    component's own events nested inside.  The default null tracer
    reduces the hook to one attribute test per event.

    The heap stores plain ``(time, seq, callback, args, label)`` tuples:
    ``seq`` is unique, so ordering is decided by C tuple comparison on
    ``(time, seq)`` and scheduling allocates no event object.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, fired.append, "a")
    >>> sim.schedule(2.0, fired.append, "b")
    >>> sim.run_until(10.0)
    2
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._now = 0.0
        self._heap: List[
            Tuple[float, int, Callable[..., None], Tuple[Any, ...], str]
        ] = []
        self._seq = 0
        self._fired = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._fired

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after events already scheduled for the current instant, within
        the same :meth:`run_until` call.
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> None:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f} s; clock is at {self._now:.6f} s"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback, args, label))

    def run_until(self, time: float) -> int:
        """Run all events scheduled strictly up to and including ``time``.

        Events fire in ``(time, seq)`` order, including those their
        callbacks schedule at or before ``time``.  The clock is left at
        ``time`` even if the last event fired earlier, so power-accounting
        code can close intervals at the horizon.  Returns the number of
        events fired by this call.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run until {time:.6f} s; clock is at {self._now:.6f} s"
            )
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= time:
            self._now, _, callback, args, label = heapq.heappop(heap)
            self._fired += 1
            fired += 1
            if self.tracer.enabled:
                with self.tracer.span("sim.event", CAT_SIM, label=label):
                    callback(*args)
            else:
                callback(*args)
        self._now = time
        return fired

    def advance(self, delay: float) -> int:
        """Run events for the next ``delay`` seconds (see :meth:`run_until`)."""
        return self.run_until(self._now + delay)
