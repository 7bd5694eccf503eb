"""Discrete-event simulation kernel.

The kernel is deliberately small: a monotonic clock, a binary-heap event
queue of plain tuples with stable FIFO ordering for simultaneous events,
and named deterministic random-number streams.  Programs schedule
callbacks with ``schedule``/``schedule_at`` and drive the clock with
``run_until``/``advance``.  Both the VDI farm simulation
(:mod:`repro.farm`) and the page-level prototype models
(:mod:`repro.prototype`, :mod:`repro.pagesim`) run on this kernel.
"""

from repro.simulator.engine import Simulator
from repro.simulator.randomness import RngStreams

__all__ = ["Simulator", "RngStreams"]
