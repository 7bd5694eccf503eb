"""Synthetic trace generator: structure, configuration, and equality
with its per-interval reference loops."""

import math
import random

import pytest

from repro.errors import ConfigError
from repro.traces import DayType, SyntheticTraceGenerator, TraceGeneratorConfig
from repro.traces.generator import BurstModel
from repro.units import INTERVALS_PER_DAY

_HOURS_PER_INTERVAL = 24.0 / INTERVALS_PER_DAY


class TestBurstModel:
    def test_duty_cycle(self):
        model = BurstModel(active_mean_intervals=2.0, idle_mean_intervals=2.0)
        assert model.duty_cycle == pytest.approx(0.5)

    def test_run_lengths_at_least_one(self):
        model = BurstModel(1.5, 1.5)
        rng = random.Random(0)
        assert all(model.sample_run(True, rng) >= 1 for _ in range(200))

    def test_run_length_mean_close_to_target(self):
        model = BurstModel(3.0, 2.0)
        rng = random.Random(1)
        samples = [model.sample_run(True, rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(3.0, rel=0.1)

    def test_sub_interval_means_rejected(self):
        with pytest.raises(ConfigError):
            BurstModel(0.5, 2.0)


class TestConfigValidation:
    def test_probability_ranges(self):
        with pytest.raises(ConfigError):
            TraceGeneratorConfig(weekday_absence_probability=1.5)

    def test_arrival_before_departure(self):
        with pytest.raises(ConfigError):
            TraceGeneratorConfig(arrival_mean_h=19.0, departure_mean_h=9.0)

    def test_weekend_sessions_positive(self):
        with pytest.raises(ConfigError):
            TraceGeneratorConfig(weekend_max_sessions=0)

    def test_negative_background_factor_rejected(self):
        with pytest.raises(ConfigError):
            TraceGeneratorConfig(background_night_factor=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("background_burst_mean_intervals", math.inf),
        ("background_burst_mean_intervals", math.nan),
        ("arrival_mean_h", math.nan),
        ("departure_mean_h", math.inf),
        ("lunch_start_mean_h", math.nan),
        ("lunch_duration_mean_h", math.inf),
        ("weekend_session_start_low_h", -math.inf),
        ("weekend_session_start_high_h", math.nan),
        ("weekend_session_duration_mean_h", math.inf),
        ("arrival_std_h", -1.0),
        ("departure_std_h", math.inf),
        ("lunch_start_std_h", math.nan),
        ("lunch_duration_std_h", -0.5),
        ("weekend_session_duration_std_h", math.inf),
        ("background_evening_factor", math.nan),
        ("background_night_factor", math.inf),
        ("background_predawn_factor", math.nan),
    ])
    def test_non_finite_or_negative_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TraceGeneratorConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("active_mean_intervals", math.inf),
        ("active_mean_intervals", math.nan),
        ("idle_mean_intervals", math.inf),
        ("idle_mean_intervals", math.nan),
    ])
    def test_non_finite_burst_mean_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            BurstModel(**{field: value})

    def test_background_weight_profile(self):
        config = TraceGeneratorConfig()
        assert config.background_weight(20.0) == config.background_evening_factor
        assert config.background_weight(2.0) == config.background_night_factor
        assert config.background_weight(6.0) == config.background_predawn_factor
        assert config.background_weight(12.0) == 1.0


class TestGeneratedStructure:
    def setup_method(self):
        self.generator = SyntheticTraceGenerator(rng=random.Random(11))

    def test_day_type_is_stamped(self):
        trace = self.generator.generate(0, DayType.WEEKEND)
        assert trace.day_type is DayType.WEEKEND

    def test_user_ids_consecutive(self):
        traces = self.generator.generate_many(5, DayType.WEEKDAY, first_user_id=10)
        assert [t.user_id for t in traces] == [10, 11, 12, 13, 14]

    def test_weekday_busier_than_weekend_on_average(self):
        weekdays = self.generator.generate_many(200, DayType.WEEKDAY)
        weekends = self.generator.generate_many(200, DayType.WEEKEND)
        weekday_mean = sum(t.active_fraction for t in weekdays) / 200
        weekend_mean = sum(t.active_fraction for t in weekends) / 200
        assert weekday_mean > 2 * weekend_mean

    def test_weekday_activity_concentrated_in_work_hours(self):
        traces = self.generator.generate_many(300, DayType.WEEKDAY)
        work = sum(
            sum(t.intervals[9 * 12 : 18 * 12]) for t in traces
        )
        night = sum(
            sum(t.intervals[0 : 6 * 12]) for t in traces
        )
        assert work > 5 * night

    def test_deterministic_given_seed(self):
        a = SyntheticTraceGenerator(rng=random.Random(3)).generate_many(
            10, DayType.WEEKDAY
        )
        b = SyntheticTraceGenerator(rng=random.Random(3)).generate_many(
            10, DayType.WEEKDAY
        )
        assert [t.intervals for t in a] == [t.intervals for t in b]

    def test_absent_users_exist_on_weekdays(self):
        # With 12% absence, a good chunk of 300 users should show days
        # with essentially no core-hours presence (background bursts may
        # still dot the day).
        traces = self.generator.generate_many(300, DayType.WEEKDAY)
        quiet = sum(
            1 for t in traces if sum(t.intervals[10 * 12 : 16 * 12]) <= 4
        )
        assert quiet >= 15

    def test_background_activity_can_touch_the_night(self):
        traces = self.generator.generate_many(500, DayType.WEEKDAY)
        night_hits = sum(
            1 for t in traces if any(t.intervals[0 : 5 * 12])
        )
        assert night_hits > 50


class ReferenceGenerator:
    """The generator's per-interval loops, kept as the reference its
    faster loops must equal: one weight call, one product and one bound
    check per interval, and one ``BurstModel.sample_run`` call per
    burst run."""

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng

    def intervals(self, day_type):
        if day_type is DayType.WEEKDAY:
            bits = self._weekday_bits()
        else:
            bits = self._weekend_bits()
        for bit in bits:
            assert bit in (0, 1)
        return tuple(bool(bit) for bit in bits)

    def _weekday_bits(self):
        rng = self.rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(bits, config.weekday_background_start_probability)
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
        skip = None
        if lunch_span is not None:
            start, end = lunch_span

            def skip(interval):
                return start <= interval * _HOURS_PER_INTERVAL < end

        self._fill_bursts(bits, first, last, config.weekday_bursts, skip)
        return bits

    def _weekend_bits(self):
        rng = self.rng
        config = self.config
        bits = [0] * INTERVALS_PER_DAY
        self._add_background(bits, config.weekend_background_start_probability)
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

    def _fill_bursts(self, bits, first, last, bursts, skip=None):
        index = first
        active = True
        while index <= min(last, INTERVALS_PER_DAY - 1):
            run = bursts.sample_run(active, self.rng)
            for _ in range(run):
                if index > min(last, INTERVALS_PER_DAY - 1):
                    break
                if active and not (skip is not None and skip(index)):
                    bits[index] = 1
                index += 1
            active = not active

    def _add_background(self, bits, start_probability):
        if start_probability <= 0.0:
            return
        rng = self.rng
        mean = self.config.background_burst_mean_intervals
        index = 0
        while index < INTERVALS_PER_DAY:
            hour = index * _HOURS_PER_INTERVAL
            weighted = start_probability * self.config.background_weight(hour)
            if rng.random() < weighted:
                run = 1
                while rng.random() > 1.0 / mean:
                    run += 1
                for offset in range(run):
                    if index + offset < INTERVALS_PER_DAY:
                        bits[index + offset] = 1
                index += run
            else:
                index += 1

    def _clamped_gauss(self, mean, std, low, high):
        return min(max(self.rng.gauss(mean, std), low), high)

    @staticmethod
    def _hour_to_interval(hour):
        return min(int(hour / _HOURS_PER_INTERVAL), INTERVALS_PER_DAY - 1)


def random_config(seed):
    """A valid config that favours the edges: probabilities and weights
    of exactly 0 or 1, burst means of exactly 1 interval, zero spreads."""
    rng = random.Random(seed)

    def probability():
        return rng.choice((0.0, 1.0, rng.random(), rng.random()))

    def spread(high):
        return rng.choice((0.0, rng.uniform(0.0, high)))

    def run_mean():
        return rng.choice((1.0, rng.uniform(1.0, 8.0)))

    arrival = rng.uniform(5.0, 13.0)
    return TraceGeneratorConfig(
        weekday_absence_probability=probability(),
        arrival_mean_h=arrival,
        arrival_std_h=spread(2.0),
        departure_mean_h=rng.uniform(arrival + 0.5, 24.0),
        departure_std_h=spread(3.0),
        lunch_probability=probability(),
        lunch_start_mean_h=rng.uniform(10.5, 14.5),
        lunch_start_std_h=spread(1.0),
        lunch_duration_mean_h=rng.uniform(0.0, 2.0),
        lunch_duration_std_h=spread(1.0),
        weekday_bursts=BurstModel(run_mean(), run_mean()),
        weekend_session_probability=probability(),
        weekend_max_sessions=rng.randint(1, 5),
        weekend_session_start_low_h=rng.uniform(0.0, 12.0),
        weekend_session_start_high_h=rng.uniform(12.0, 24.0),
        weekend_session_duration_mean_h=rng.uniform(0.0, 6.0),
        weekend_session_duration_std_h=spread(2.0),
        weekend_bursts=BurstModel(run_mean(), run_mean()),
        weekday_background_start_probability=probability(),
        weekend_background_start_probability=probability(),
        background_burst_mean_intervals=run_mean(),
        background_evening_factor=rng.choice((0.0, rng.uniform(0.0, 3.0))),
        background_night_factor=rng.choice((0.0, rng.uniform(0.0, 3.0))),
        background_predawn_factor=rng.choice((0.0, rng.uniform(0.0, 3.0))),
    )


class TestMatchesReference:
    @pytest.mark.parametrize("day_type", list(DayType))
    @pytest.mark.parametrize("config_seed", range(30))
    def test_same_traces_and_draws_as_the_reference(self, config_seed, day_type):
        config = random_config(config_seed)
        reference_rng = random.Random(config_seed)
        reference = ReferenceGenerator(config, reference_rng)
        expected = [reference.intervals(day_type) for _ in range(30)]
        rng = random.Random(config_seed)
        traces = SyntheticTraceGenerator(config, rng=rng).generate_many(
            30, day_type
        )
        assert [trace.intervals for trace in traces] == expected
        # The same number of draws, so the next user would match too.
        assert rng.getstate() == reference_rng.getstate()
