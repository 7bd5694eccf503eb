"""Typed trace events.

A :class:`TraceEvent` is one timestamped observation emitted by an
instrumented component: a power-state transition, a migration with its
bytes moved, an injected fault, a policy decision, or the begin/end
marker of a nested span.  Events carry *simulated* time — the
observability layer never reads wall clocks, so a traced run is exactly
as reproducible as an untraced one.

Event names are dotted and live under a small set of categories; the
constants below are the vocabulary the simulation layers emit and the
summarizer/tests consume.  Argument values are restricted to JSON
scalars so the JSONL export is lossless and byte-stable.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Union

from repro.errors import ObservabilityError

#: Categories (one Chrome-trace lane each).
CAT_SIM = "sim"
CAT_POWER = "power"
CAT_MIGRATION = "migration"
CAT_FAULT = "fault"
CAT_POLICY = "policy"
CAT_FARM = "farm"
CAT_ZONE = "zone"

#: Span phases of an event (Chrome trace_event ``ph`` analogues).
PHASE_INSTANT = "instant"
PHASE_BEGIN = "begin"
PHASE_END = "end"

_PHASES = (PHASE_INSTANT, PHASE_BEGIN, PHASE_END)

#: JSON-scalar argument types allowed on events.
ArgValue = Union[str, int, float, bool]

#: A JSONL record's required fields and their converters, in
#: constructor order.
_RECORD_FIELDS = (
    ("seq", int), ("time_s", float), ("name", str), ("cat", str), ("ph", str),
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation at a simulated instant."""

    #: Emission order within one tracer (ties on ``time_s`` keep order).
    seq: int
    #: Simulated time of the observation, seconds.
    time_s: float
    #: Dotted event name, e.g. ``"power.transition"``.
    name: str
    #: Category (``CAT_*``); selects the Chrome-trace lane.
    category: str
    #: ``PHASE_INSTANT`` for point events, ``PHASE_BEGIN``/``PHASE_END``
    #: for span boundaries.
    phase: str = PHASE_INSTANT
    #: Structured payload; JSON scalars only.
    args: Dict[str, ArgValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.phase not in _PHASES:
            raise ObservabilityError(
                f"event {self.name!r} has unknown phase {self.phase!r}"
            )
        for key, value in self.args.items():
            if not isinstance(value, (str, int, float, bool)):
                raise ObservabilityError(
                    f"event {self.name!r} arg {key!r} is not a JSON "
                    f"scalar: {reprlib.repr(value)}"
                )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view (the JSONL record)."""
        return {
            "seq": self.seq,
            "time_s": self.time_s,
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TraceEvent":
        """Rebuild an event from a JSONL record (summarizer input).

        A record that is not an event is an error naming its missing or
        malformed field and the record's keys, never the record itself:
        a whole JSON document on one line is a "record" too.
        """
        if not isinstance(record, Mapping):
            raise ObservabilityError(
                f"malformed trace record: a JSON {type(record).__name__}, "
                "not an object"
            )
        missing = [key for key, _ in _RECORD_FIELDS if key not in record]
        if missing:
            raise ObservabilityError(
                f"malformed trace record: missing "
                f"{', '.join(map(repr, missing))} "
                f"(its keys: {reprlib.repr(list(record))})"
            )
        values = []
        for key, convert in _RECORD_FIELDS + (("args", dict),):
            value = record.get(key, {})
            try:
                values.append(convert(value))
            except (TypeError, ValueError):
                raise ObservabilityError(
                    f"malformed trace record: {key!r} is not a valid "
                    f"{convert.__name__}: {reprlib.repr(value)}"
                ) from None
        return cls(*values)
