"""Observability: structured event tracing.

The simulation layers accept an optional :class:`Tracer` (default: the
zero-overhead :data:`NULL_TRACER`); a :class:`RecordingTracer` captures
typed events — power transitions, migrations with bytes moved, fault
injections, policy decisions — plus nested spans, all stamped with
*simulated* time.  Events and spans are the one record of a traced run.
Exporters write JSONL and Chrome ``trace_event`` JSON (open it in
Perfetto or ``chrome://tracing``) and render a text timeline summary.

Tracing is observation only: with any tracer, every RNG stream and every
result byte is identical to an untraced run (differential-tested).
"""

from repro.obs.events import (
    CAT_FARM,
    CAT_FAULT,
    CAT_MIGRATION,
    CAT_POLICY,
    CAT_POWER,
    CAT_SIM,
    CAT_ZONE,
    PHASE_BEGIN,
    PHASE_END,
    PHASE_INSTANT,
    TraceEvent,
)
from repro.obs.export import (
    events_to_chrome,
    events_to_jsonl,
    read_jsonl,
    timeline_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer

__all__ = [
    "TraceEvent",
    "CAT_SIM",
    "CAT_POWER",
    "CAT_MIGRATION",
    "CAT_FAULT",
    "CAT_POLICY",
    "CAT_FARM",
    "CAT_ZONE",
    "PHASE_INSTANT",
    "PHASE_BEGIN",
    "PHASE_END",
    "Tracer",
    "NULL_TRACER",
    "RecordingTracer",
    "events_to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "events_to_chrome",
    "write_chrome_trace",
    "validate_chrome_trace",
    "timeline_summary",
]
