"""Trace exporters: JSONL, Chrome ``trace_event``, and a text timeline.

The JSONL export is byte-stable for a given event list (sorted keys,
compact separators, one record per line), so pinned-seed traces can be
committed as goldens.  The Chrome export produces the subset of the
Trace Event Format that Perfetto / ``chrome://tracing`` consume — one
thread lane per event category, ``B``/``E`` pairs for spans, ``i`` for
instants — and :func:`validate_chrome_trace` checks that shape so CI can
gate exporter output without a browser.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Sequence

from repro.errors import ObservabilityError, TraceFormatError
from repro.obs.events import (
    CAT_FAULT,
    CAT_MIGRATION,
    CAT_POWER,
    PHASE_BEGIN,
    PHASE_END,
    PHASE_INSTANT,
    TraceEvent,
)

#: ``phase`` -> Chrome trace_event ``ph`` code.
_CHROME_PHASE = {PHASE_INSTANT: "i", PHASE_BEGIN: "B", PHASE_END: "E"}

#: ``ph`` codes a valid export may contain (M = thread metadata).
_VALID_CHROME_PHASES = frozenset({"i", "B", "E", "M"})


def _dump(record: Mapping[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events as one compact JSON object per line."""
    lines = [_dump(event.to_dict()) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write the JSONL export; returns the number of events written."""
    text = events_to_jsonl(events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a JSONL trace back into events (the summarizer's input)."""
    events: List[TraceEvent] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            try:
                events.append(TraceEvent.from_dict(record))
            except ObservabilityError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
    return events


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def events_to_chrome(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Convert events to a Chrome/Perfetto ``trace_event`` document.

    Categories map to thread lanes in first-seen order (deterministic
    for a deterministic event stream); timestamps convert from simulated
    seconds to the format's microseconds.
    """
    lanes: Dict[str, int] = {}
    trace_events: List[Dict[str, Any]] = []
    for event in events:
        tid = lanes.get(event.category)
        if tid is None:
            tid = lanes[event.category] = len(lanes)
            trace_events.append({
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": event.category},
            })
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "ph": _CHROME_PHASE[event.phase],
            "ts": event.time_s * 1e6,
            "pid": 0,
            "tid": tid,
            "args": dict(event.args),
        }
        if event.phase == PHASE_INSTANT:
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[TraceEvent], path: str) -> int:
    """Write the Chrome export; returns the number of source events."""
    document = events_to_chrome(events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dump(document))
        handle.write("\n")
    return len(events)


def validate_chrome_trace(document: Any) -> int:
    """Check a parsed Chrome trace document against the expected shape.

    Raises :class:`~repro.errors.TraceFormatError` on the first
    violation; returns the number of trace events on success.  Checks
    the subset of the Trace Event Format this exporter emits: a
    ``traceEvents`` list whose entries carry ``name``/``ph``/``pid``/
    ``tid`` (+ non-negative numeric ``ts`` and an ``args`` object for
    non-metadata phases), with balanced ``B``/``E`` spans per lane.
    """
    if not isinstance(document, dict):
        raise TraceFormatError("chrome trace must be a JSON object")
    trace_events = document.get("traceEvents")
    if not isinstance(trace_events, list):
        raise TraceFormatError("chrome trace lacks a traceEvents list")
    depth: Dict[Any, int] = {}
    for index, record in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(record, dict):
            raise TraceFormatError(f"{where}: not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in record:
                raise TraceFormatError(f"{where}: missing {key!r}")
        phase = record["ph"]
        if phase not in _VALID_CHROME_PHASES:
            raise TraceFormatError(f"{where}: unknown ph {phase!r}")
        if not isinstance(record["name"], str):
            raise TraceFormatError(f"{where}: name is not a string")
        if phase == "M":
            continue
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            raise TraceFormatError(f"{where}: ts is not a number")
        if ts < 0:
            raise TraceFormatError(f"{where}: negative ts {ts}")
        if not isinstance(record.get("args"), dict):
            raise TraceFormatError(f"{where}: args is not an object")
        lane = (record["pid"], record["tid"])
        if phase == "B":
            depth[lane] = depth.get(lane, 0) + 1
        elif phase == "E":
            depth[lane] = depth.get(lane, 0) - 1
            if depth[lane] < 0:
                raise TraceFormatError(
                    f"{where}: E without matching B on lane {lane}"
                )
    open_lanes = sorted(
        (repr(lane) for lane, count in depth.items() if count != 0)
    )
    if open_lanes:
        raise TraceFormatError(f"unbalanced spans on lanes {open_lanes}")
    return len(trace_events)


# ---------------------------------------------------------------------------
# text timeline summary
# ---------------------------------------------------------------------------

def timeline_summary(events: Sequence[TraceEvent]) -> str:
    """A plain-text digest of a trace: categories, hot spots, faults.

    Deterministic for a given trace (name-sorted tables), so it can be
    asserted in tests and diffed between runs.
    """
    if not events:
        return "empty trace (0 events)"
    lines: List[str] = []
    first_s = events[0].time_s
    last_s = events[-1].time_s
    lines.append(
        f"{len(events)} events over "
        f"[{first_s:.1f} s, {last_s:.1f} s] of simulated time"
    )

    by_category: Dict[str, int] = {}
    by_name: Dict[str, int] = {}
    for event in events:
        if event.phase == PHASE_END:
            continue  # count each span once, at its begin event
        by_category[event.category] = by_category.get(event.category, 0) + 1
        by_name[event.name] = by_name.get(event.name, 0) + 1

    lines.append("")
    lines.append("events per category:")
    for category in sorted(by_category):
        lines.append(f"  {category:<12} {by_category[category]}")

    transitions: Dict[str, int] = {}
    migration_mib = 0.0
    fault_names: Dict[str, int] = {}
    for event in events:
        if event.category == CAT_POWER and event.name == "power.transition":
            edge = f"{event.args.get('from')} -> {event.args.get('to')}"
            transitions[edge] = transitions.get(edge, 0) + 1
        elif event.category == CAT_MIGRATION:
            mib = event.args.get("mib")
            if isinstance(mib, (int, float)):
                migration_mib += mib
        elif event.category == CAT_FAULT:
            fault_names[event.name] = fault_names.get(event.name, 0) + 1

    if transitions:
        lines.append("")
        lines.append("power transitions:")
        for edge in sorted(transitions):
            lines.append(f"  {edge:<24} {transitions[edge]}")
    if migration_mib > 0.0:
        lines.append("")
        lines.append(f"migration traffic: {migration_mib:,.1f} MiB")
    if fault_names:
        lines.append("")
        lines.append("injected faults:")
        for name in sorted(fault_names):
            lines.append(f"  {name:<28} {fault_names[name]}")

    busiest = sorted(by_name.items(), key=lambda item: (-item[1], item[0]))
    lines.append("")
    lines.append("busiest events:")
    for name, count in busiest[:8]:
        lines.append(f"  {name:<28} {count}")
    return "\n".join(lines)
