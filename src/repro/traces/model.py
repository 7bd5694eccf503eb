"""Trace data model: one user-day of 5-minute active/idle intervals."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.units import INTERVALS_PER_DAY, TRACE_INTERVAL_SECONDS


class DayType(enum.Enum):
    """Whether a user-day was recorded on a weekday or a weekend."""

    WEEKDAY = "weekday"
    WEEKEND = "weekend"


@dataclass(frozen=True)
class UserDayTrace:
    """One user's activity over one day, in 5-minute intervals.

    ``intervals[i]`` is ``True`` when the user generated any keyboard or
    mouse input during interval ``i`` (the paper marks an interval active
    if *any* input occurred within it).
    """

    user_id: int
    day_type: DayType
    intervals: Tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.intervals) != INTERVALS_PER_DAY:
            raise TraceFormatError(
                f"user-day must have {INTERVALS_PER_DAY} intervals, "
                f"got {len(self.intervals)}"
            )

    # -- basic queries ------------------------------------------------

    def is_active(self, interval: int) -> bool:
        """Whether the user was active during interval ``interval``."""
        return self.intervals[interval]

    def is_active_at(self, time_s: float) -> bool:
        """Whether the user was active at absolute time ``time_s`` (s)."""
        index = int(time_s // TRACE_INTERVAL_SECONDS)
        if not 0 <= index < INTERVALS_PER_DAY:
            raise TraceFormatError(f"time {time_s} s is outside the trace day")
        return self.intervals[index]

    @property
    def active_fraction(self) -> float:
        """Fraction of the day's intervals marked active."""
        return sum(self.intervals) / INTERVALS_PER_DAY

    @property
    def transitions(self) -> int:
        """Number of active/idle boundary crossings over the day."""
        return sum(
            1
            for previous, current in zip(self.intervals, self.intervals[1:])
            if previous != current
        )

    def activation_intervals(self) -> List[int]:
        """Interval indices at which the user turns idle -> active."""
        indices = []
        previous = False
        for index, active in enumerate(self.intervals):
            if active and not previous:
                indices.append(index)
            previous = active
        return indices

    def runs(self) -> Iterator[Tuple[bool, int]]:
        """Yield ``(state, length)`` for each maximal run of equal state."""
        run_state = self.intervals[0]
        run_length = 0
        for active in self.intervals:
            if active == run_state:
                run_length += 1
            else:
                yield run_state, run_length
                run_state = active
                run_length = 1
        yield run_state, run_length

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_bits(
        cls, user_id: int, day_type: DayType, bits: Sequence[int]
    ) -> "UserDayTrace":
        """Build from a sequence of 0/1 integers (one per interval)."""
        # Every bit equals 0 or 1 exactly when the two counts cover the
        # sequence; the loop runs only to name the first bad bit.
        if bits.count(1) + bits.count(0) != len(bits):
            for bit in bits:
                if bit not in (0, 1):
                    raise TraceFormatError(
                        f"interval bits must be 0 or 1, got {bit!r}"
                    )
        return cls(
            user_id=user_id,
            day_type=day_type,
            intervals=tuple(map(bool, bits)),
        )

    @classmethod
    def all_idle(cls, user_id: int, day_type: DayType) -> "UserDayTrace":
        """A user-day with no activity at all."""
        return cls(user_id, day_type, (False,) * INTERVALS_PER_DAY)

    @classmethod
    def all_active(cls, user_id: int, day_type: DayType) -> "UserDayTrace":
        """A user-day that is active in every interval."""
        return cls(user_id, day_type, (True,) * INTERVALS_PER_DAY)

    def __repr__(self) -> str:
        return (
            f"<UserDayTrace user={self.user_id} {self.day_type.value} "
            f"active={self.active_fraction:.1%} transitions={self.transitions}>"
        )
