"""Synthetic diurnal user-day generator.

The generator models an office user's day as a *presence session* (arrive
in the morning, leave in the evening, optionally step out for lunch)
during which activity alternates between active bursts and idle gaps,
plus sparse background activity outside the session (researchers who poke
their machines at night).  Weekends replace the presence session with a
small number of short sessions occurring with low probability.

Default parameters were calibrated so the generated ensemble matches the
aggregate statistics the paper reports for its real traces (§5.1-5.2):

* weekday concurrent activity peaks in the early afternoon, with a peak
  below ~46% of users active simultaneously;
* the trough falls in the early morning (around 6:30 am);
* a group of 30 weekday users is simultaneously idle ~13% of the time;
* weekends show much lower activity.

``tests/test_traces_calibration.py`` asserts these targets.

Every ensemble is a pure function of its seed, so the loops keep a draw
contract: each visited interval of the background overlay draws one
``random()`` against a threshold equal, bit for bit, to
``start_probability * background_weight(hour)``; each geometric run
length is drawn one trial at a time; and the lunch break is the exact
float test ``start <= hour < end`` per interval.  The thresholds are
computed once per generator, and active runs are filled by slice.
``tests/golden/ensemble_golden.json`` and a test-local copy of the
per-interval loops hold the generator to this contract.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.traces.model import DayType, UserDayTrace
from repro.units import INTERVALS_PER_DAY

_HOURS_PER_INTERVAL = 24.0 / INTERVALS_PER_DAY


@dataclass(frozen=True)
class BurstModel:
    """Alternating active-burst / idle-gap process within a session.

    Run lengths are geometric; ``active_mean_intervals`` and
    ``idle_mean_intervals`` give the mean lengths in 5-minute intervals.
    """

    active_mean_intervals: float = 2.1
    idle_mean_intervals: float = 2.6

    def __post_init__(self) -> None:
        for name in ("active_mean_intervals", "idle_mean_intervals"):
            value = getattr(self, name)
            # Written so that NaN and inf fail it: an infinite mean
            # would draw trials forever.
            if not 1.0 <= value < math.inf:
                raise ConfigError(
                    f"{name} must be >= 1 interval and finite, got {value}"
                )

    @property
    def duty_cycle(self) -> float:
        """Long-run fraction of session intervals that are active."""
        total = self.active_mean_intervals + self.idle_mean_intervals
        return self.active_mean_intervals / total

    def sample_run(self, active: bool, rng: random.Random) -> int:
        """Sample one run length (in intervals) for the given state.

        The generator's burst fill inlines these trials, because a call
        per run costs more than the run's draws; its tests hold the fill
        to this method.
        """
        mean = self.active_mean_intervals if active else self.idle_mean_intervals
        # Geometric with support {1, 2, ...} and the requested mean.
        success = 1.0 / mean
        length = 1
        while rng.random() > success:
            length += 1
        return length


@dataclass(frozen=True)
class TraceGeneratorConfig:
    """Tunable parameters of the synthetic diurnal model.

    Times are hours-of-day as floats (e.g. ``9.5`` is 9:30 am); durations
    are hours.
    """

    # -- weekday presence session --------------------------------------
    weekday_absence_probability: float = 0.12
    arrival_mean_h: float = 9.5
    arrival_std_h: float = 1.0
    departure_mean_h: float = 18.1
    departure_std_h: float = 1.4
    lunch_probability: float = 0.80
    lunch_start_mean_h: float = 12.3
    lunch_start_std_h: float = 0.4
    lunch_duration_mean_h: float = 0.75
    lunch_duration_std_h: float = 0.25
    weekday_bursts: BurstModel = field(default_factory=BurstModel)

    # -- weekend sessions ------------------------------------------------
    weekend_session_probability: float = 0.45
    weekend_max_sessions: int = 2
    weekend_session_start_low_h: float = 9.0
    weekend_session_start_high_h: float = 21.0
    weekend_session_duration_mean_h: float = 1.6
    weekend_session_duration_std_h: float = 1.0
    weekend_bursts: BurstModel = field(
        default_factory=lambda: BurstModel(
            active_mean_intervals=2.2, idle_mean_intervals=2.4
        )
    )

    # -- background (out-of-session) activity ----------------------------
    #: Marginal probability that a given out-of-session interval starts a
    #: background burst (e-mail check, remote login, etc.).
    weekday_background_start_probability: float = 0.028
    weekend_background_start_probability: float = 0.012
    background_burst_mean_intervals: float = 2.0
    #: Hour-of-day multipliers on the background start probability: the
    #: real traces are quietest just before dawn (the Figure 7 trough
    #: sits at ~6:30 am) and busier in the evening than deep at night.
    background_evening_factor: float = 1.5   # 18:00 - 23:00
    background_night_factor: float = 0.8     # 23:00 - 05:00
    background_predawn_factor: float = 0.35  # 05:00 - 08:00

    def __post_init__(self) -> None:
        # Each float check is written so that NaN and inf fail it.
        for name in (
            "weekday_absence_probability",
            "lunch_probability",
            "weekend_session_probability",
            "weekday_background_start_probability",
            "weekend_background_start_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value}")
        for name in (
            "arrival_mean_h",
            "departure_mean_h",
            "lunch_start_mean_h",
            "lunch_duration_mean_h",
            "weekend_session_start_low_h",
            "weekend_session_start_high_h",
            "weekend_session_duration_mean_h",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in (
            "arrival_std_h",
            "departure_std_h",
            "lunch_start_std_h",
            "lunch_duration_std_h",
            "weekend_session_duration_std_h",
            "background_evening_factor",
            "background_night_factor",
            "background_predawn_factor",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(
                    f"{name} must be non-negative and finite, got {value}"
                )
        if self.arrival_mean_h >= self.departure_mean_h:
            raise ConfigError("mean arrival must precede mean departure")
        if self.weekend_max_sessions < 1:
            raise ConfigError("weekend_max_sessions must be >= 1")
        if not 1.0 <= self.background_burst_mean_intervals < math.inf:
            raise ConfigError(
                "background_burst_mean_intervals must be >= 1 and finite, "
                f"got {self.background_burst_mean_intervals}"
            )

    def background_weight(self, hour: float) -> float:
        """Hour-of-day multiplier on background activity."""
        if 18.0 <= hour < 23.0:
            return self.background_evening_factor
        if hour >= 23.0 or hour < 5.0:
            return self.background_night_factor
        if 5.0 <= hour < 8.0:
            return self.background_predawn_factor
        return 1.0


class SyntheticTraceGenerator:
    """Generates :class:`UserDayTrace` objects from the diurnal model."""

    def __init__(
        self,
        config: TraceGeneratorConfig = TraceGeneratorConfig(),
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config
        self._rng = rng if rng is not None else random.Random(0)
        #: start probability -> its 288 per-interval background start
        #: thresholds, built on first use.
        self._thresholds: Dict[float, List[float]] = {}

    # -- public API -----------------------------------------------------

    def generate(self, user_id: int, day_type: DayType) -> UserDayTrace:
        """Generate one synthetic user-day of the given type."""
        if day_type is DayType.WEEKDAY:
            bits = self._weekday_bits()
        else:
            bits = self._weekend_bits()
        return UserDayTrace.from_bits(user_id, day_type, bits)

    def generate_many(
        self, count: int, day_type: DayType, first_user_id: int = 0
    ) -> List[UserDayTrace]:
        """Generate ``count`` user-days with consecutive user ids."""
        return [
            self.generate(first_user_id + offset, day_type)
            for offset in range(count)
        ]

    # -- weekday model ----------------------------------------------------

    def _weekday_bits(self) -> List[int]:
        rng = self._rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(
            bits, config.weekday_background_start_probability
        )
        if rng.random() < config.weekday_absence_probability:
            return bits

        arrival = self._clamped_gauss(
            config.arrival_mean_h, config.arrival_std_h, 5.5, 12.5
        )
        departure = self._clamped_gauss(
            config.departure_mean_h, config.departure_std_h, arrival + 2.0, 23.5
        )
        lunch_span = None
        if rng.random() < config.lunch_probability:
            lunch_start = self._clamped_gauss(
                config.lunch_start_mean_h, config.lunch_start_std_h, 11.0, 14.0
            )
            lunch_length = self._clamped_gauss(
                config.lunch_duration_mean_h,
                config.lunch_duration_std_h,
                0.25,
                1.5,
            )
            lunch_span = (lunch_start, min(lunch_start + lunch_length, departure))

        first = self._hour_to_interval(arrival)
        last = self._hour_to_interval(departure)
        self._fill_bursts(
            bits, first, last, config.weekday_bursts, lunch=lunch_span
        )
        return bits

    # -- weekend model ----------------------------------------------------

    def _weekend_bits(self) -> List[int]:
        rng = self._rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(
            bits, config.weekend_background_start_probability
        )
        if rng.random() >= config.weekend_session_probability:
            return bits
        sessions = rng.randint(1, config.weekend_max_sessions)
        for _ in range(sessions):
            start = rng.uniform(
                config.weekend_session_start_low_h,
                config.weekend_session_start_high_h,
            )
            duration = self._clamped_gauss(
                config.weekend_session_duration_mean_h,
                config.weekend_session_duration_std_h,
                0.25,
                5.0,
            )
            first = self._hour_to_interval(start)
            last = self._hour_to_interval(min(start + duration, 24.0 - 1e-9))
            self._fill_bursts(bits, first, last, config.weekend_bursts)
        return bits

    # -- shared machinery ---------------------------------------------------

    def _fill_bursts(self, bits, first, last, bursts: BurstModel, lunch=None):
        """Fill ``bits[first..last]`` with an alternating burst process,
        leaving the intervals of the ``(start, end)`` hour span ``lunch``
        idle.  Run lengths are :meth:`BurstModel.sample_run`'s draws."""
        draw = self._rng.random
        active_success = 1.0 / bursts.active_mean_intervals
        idle_success = 1.0 / bursts.idle_mean_intervals
        end = min(last, INTERVALS_PER_DAY - 1) + 1
        index = first
        # Sessions begin with activity: the user just sat down.
        while index < end:
            stop = index + 1
            while draw() > active_success:
                stop += 1
            stop = min(stop, end)
            if lunch is None:
                bits[index:stop] = [1] * (stop - index)
            else:
                # The exact float test per interval: an index range
                # derived by division could round differently at the
                # span's ends.
                lunch_start, lunch_end = lunch
                for interval in range(index, stop):
                    hour = interval * _HOURS_PER_INTERVAL
                    if not lunch_start <= hour < lunch_end:
                        bits[interval] = 1
            if stop == end:
                return
            index = stop + 1
            while draw() > idle_success:
                index += 1

    def _add_background(self, bits, start_probability: float) -> None:
        """Overlay sparse background activity bursts on the whole day,
        modulated by the hour-of-day weight profile."""
        if start_probability <= 0.0:
            return
        thresholds = self._background_thresholds(start_probability)
        draw = self._rng.random
        success = 1.0 / self.config.background_burst_mean_intervals
        index = 0
        while index < INTERVALS_PER_DAY:
            if draw() < thresholds[index]:
                # Geometric burst length, one trial per draw.
                end = index + 1
                while draw() > success:
                    end += 1
                stop = min(end, INTERVALS_PER_DAY)
                bits[index:stop] = [1] * (stop - index)
                index = end
            else:
                index += 1

    def _background_thresholds(self, start_probability: float) -> List[float]:
        """Per-interval background start probabilities: the same
        products ``start_probability * background_weight(hour)`` the
        draws are compared with, computed once per generator."""
        thresholds = self._thresholds.get(start_probability)
        if thresholds is None:
            weight = self.config.background_weight
            thresholds = [
                start_probability * weight(index * _HOURS_PER_INTERVAL)
                for index in range(INTERVALS_PER_DAY)
            ]
            self._thresholds[start_probability] = thresholds
        return thresholds

    def _clamped_gauss(self, mean, std, low, high) -> float:
        value = self._rng.gauss(mean, std)
        return min(max(value, low), high)

    @staticmethod
    def _hour_to_interval(hour: float) -> int:
        return min(int(hour / _HOURS_PER_INTERVAL), INTERVALS_PER_DAY - 1)
