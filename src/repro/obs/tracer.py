"""Tracers: the null default and the recording implementation.

:class:`Tracer` defines the full instrumentation surface as no-ops, so
it doubles as the protocol *and* the zero-overhead default — every
instrumented component accepts ``tracer: Optional[Tracer] = None`` and
substitutes the shared :data:`NULL_TRACER`.  Instrumentation sites that
would pay to *build* their payload (formatting, dict construction)
guard on :attr:`Tracer.enabled` first, so a disabled run does no work
beyond one attribute test.

The tracing contract that keeps traced runs trustworthy:

* tracers never draw randomness and never read wall clocks — a
  :class:`RecordingTracer` stamps events with *simulated* time from the
  clock callable the simulation binds via :meth:`Tracer.set_clock`;
* tracers never mutate simulation state — instrumentation is
  observation only, so enabling tracing cannot perturb a single RNG
  stream or result byte (the differential tests prove it).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.events import (
    PHASE_BEGIN,
    PHASE_END,
    PHASE_INSTANT,
    ArgValue,
    TraceEvent,
)


class Tracer:
    """The no-op tracer: the full surface, every method free.

    ``enabled`` is False; hot paths test it before building event
    payloads.  All methods intentionally ignore their arguments.
    """

    #: Whether this tracer records anything; instrumentation sites may
    #: skip payload construction entirely when False.
    enabled: bool = False

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the simulated-time source (e.g. ``lambda: sim.now``)."""

    def event(self, name: str, category: str = "event",
              **args: ArgValue) -> None:
        """Record one instant event at the current simulated time."""

    @contextlib.contextmanager
    def span(self, name: str, category: str = "span",
             **args: ArgValue) -> Iterator[None]:
        """A nested span around a synchronous block (begin/end events)."""
        yield


#: The shared default; stateless, so one instance serves every component.
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Captures typed events and nested spans in memory.

    One tracer serves one simulation run; the run binds the simulated
    clock, and every instrumented layer (simulator kernel, farm, cluster
    manager, fault injector, zone controller) shares this instance, so
    the event list interleaves all of them in emission order — which,
    because simulated time is monotone, is also time order.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.events: List[TraceEvent] = []
        self._clock = clock
        self._seq = 0
        #: Open spans as ``(name, category)``, innermost last.
        self._stack: List[Tuple[str, str]] = []

    # -- clock ------------------------------------------------------------

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def now_s(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        return self._clock() if self._clock is not None else 0.0

    # -- events and spans --------------------------------------------------

    def _append(self, name: str, category: str, phase: str, args) -> None:
        self.events.append(
            TraceEvent(
                seq=self._seq,
                time_s=self.now_s(),
                name=name,
                category=category,
                phase=phase,
                args=args,
            )
        )
        self._seq += 1

    def event(self, name: str, category: str = "event",
              **args: ArgValue) -> None:
        self._append(name, category, PHASE_INSTANT, args)

    @contextlib.contextmanager
    def span(self, name: str, category: str = "span",
             **args: ArgValue) -> Iterator[None]:
        self._append(name, category, PHASE_BEGIN, args)
        self._stack.append((name, category))
        try:
            yield
        finally:
            opened = self._stack.pop()
            if opened != (name, category):
                raise ObservabilityError(
                    f"span stack corrupted: closing {(name, category)} "
                    f"but {opened} is innermost"
                )
            self._append(name, category, PHASE_END, {})

    @property
    def open_span_count(self) -> int:
        """Spans entered but not yet exited (0 once a run completes)."""
        return len(self._stack)

    def __repr__(self) -> str:
        return (
            f"<RecordingTracer events={len(self.events)} "
            f"open_spans={len(self._stack)}>"
        )
