"""Unit tests for the observability layer (``repro.obs``).

Covers the typed event model, the recording tracer's span/clock
semantics, the metrics registry, and all three exporters — including
the failure paths (malformed records, corrupt span stacks, invalid
Chrome documents) that the differential and property batteries never
reach on healthy traces.
"""

import json

import pytest

from repro.errors import ObservabilityError, TraceFormatError
from repro.faults import FaultProfile
from repro.faults.plan import FaultInjector
from repro.memserver import MemoryServer, PageStore
from repro.obs import (
    CAT_FAULT,
    CAT_MEMSERVER,
    CAT_POWER,
    NULL_TRACER,
    PHASE_BEGIN,
    PHASE_END,
    PHASE_INSTANT,
    Counter,
    Gauge,
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    TimeWeightedHistogram,
    TraceEvent,
    Tracer,
    events_to_chrome,
    events_to_jsonl,
    read_jsonl,
    timeline_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.simulator.randomness import RngStreams


def make_event(seq=0, time_s=1.5, name="power.transition",
               category=CAT_POWER, phase=PHASE_INSTANT, **args):
    return TraceEvent(seq=seq, time_s=time_s, name=name,
                      category=category, phase=phase, args=args)


class TestTraceEvent:
    def test_roundtrip_through_dict(self):
        event = make_event(host=3, mib=12.5, clean=True, state="sleeping")
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_unknown_phase_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown phase"):
            make_event(phase="during")

    def test_non_scalar_arg_rejected(self):
        with pytest.raises(ObservabilityError, match="not a JSON scalar"):
            make_event(payload=[1, 2, 3])

    def test_from_dict_rejects_malformed_record(self):
        with pytest.raises(ObservabilityError, match="malformed"):
            TraceEvent.from_dict({"seq": 0, "name": "x"})
        with pytest.raises(ObservabilityError, match="malformed"):
            TraceEvent.from_dict({"seq": 0, "time_s": "not-a-number-",
                                  "name": "x", "cat": "sim", "ph": "instant"})


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert isinstance(NULL_TRACER, Tracer)
        # Every surface method is a free no-op.
        tracer.set_clock(lambda: 1.0)
        tracer.event("x", "sim", a=1)
        tracer.counter("c", 2.0)
        tracer.gauge("g", 3.0)
        tracer.observe("h", 4.0, weight=2.0)
        with tracer.span("s", "sim"):
            pass


class TestRecordingTracer:
    def test_events_stamped_with_bound_clock(self):
        clock = {"now": 0.0}
        tracer = RecordingTracer()
        assert tracer.now_s() == 0.0  # unbound clock defaults to zero
        tracer.set_clock(lambda: clock["now"])
        tracer.event("a", "sim")
        clock["now"] = 42.0
        tracer.event("b", "sim", n=1)
        assert [e.time_s for e in tracer.events] == [0.0, 42.0]
        assert [e.seq for e in tracer.events] == [0, 1]
        assert tracer.events[1].args == {"n": 1}

    def test_span_emits_balanced_begin_end(self):
        tracer = RecordingTracer(clock=lambda: 5.0)
        with tracer.span("outer", "farm", label="x"):
            assert tracer.open_span_count == 1
            with tracer.span("inner", "sim"):
                tracer.event("tick", "sim")
        assert tracer.open_span_count == 0
        phases = [(e.name, e.phase) for e in tracer.events]
        assert phases == [
            ("outer", PHASE_BEGIN),
            ("inner", PHASE_BEGIN),
            ("tick", PHASE_INSTANT),
            ("inner", PHASE_END),
            ("outer", PHASE_END),
        ]

    def test_span_propagates_body_exception_and_still_closes(self):
        tracer = RecordingTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s", "sim"):
                raise RuntimeError("boom")
        assert tracer.open_span_count == 0
        assert tracer.events[-1].phase == PHASE_END

    def test_corrupt_span_stack_detected(self):
        tracer = RecordingTracer()
        span = tracer.span("legit", "sim")
        span.__enter__()
        tracer._stack[-1] = ("impostor", "sim")
        with pytest.raises(ObservabilityError, match="span stack corrupted"):
            span.__exit__(None, None, None)

    def test_metric_methods_feed_registry(self):
        tracer = RecordingTracer(clock=lambda: 7.0)
        tracer.counter("migrations", 2.0)
        tracer.counter("migrations")
        tracer.gauge("active", 5.0)
        tracer.observe("latency_s", 1.5, weight=3.0)
        snapshot = tracer.metrics.snapshot()
        assert snapshot["counters"]["migrations"] == 3.0
        assert snapshot["gauges"]["active"] == {"last": 5.0, "samples": 1}
        assert tracer.metrics.gauge("active").samples == [(7.0, 5.0)]
        assert snapshot["histograms"]["latency_s"]["total_weight"] == 3.0

    def test_repr_mentions_counts(self):
        tracer = RecordingTracer()
        tracer.event("a", "sim")
        assert "events=1" in repr(tracer)


class TestMetrics:
    def test_counter_rejects_decrease(self):
        counter = Counter("n")
        counter.inc(0.0)
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_gauge_keeps_sample_history(self):
        gauge = Gauge("g")
        gauge.set(1.0, 10.0)
        gauge.set(2.0, 20.0)
        assert gauge.value == 2.0
        assert gauge.samples == [(10.0, 1.0), (20.0, 2.0)]

    def test_histogram_weighted_mean_and_quantiles(self):
        hist = TimeWeightedHistogram("h")
        hist.observe(1.0, weight=1.0)
        hist.observe(3.0, weight=3.0)
        assert hist.count == 2
        assert hist.total_weight == 4.0
        assert hist.mean() == pytest.approx(2.5)
        assert hist.quantile(0.5) == 3.0  # weight concentrates at 3.0
        assert hist.quantile(0.0) <= hist.quantile(1.0)

    def test_histogram_edge_cases(self):
        hist = TimeWeightedHistogram("h")
        assert hist.mean() == 0.0
        with pytest.raises(ObservabilityError, match="no observations"):
            hist.quantile(0.5)
        with pytest.raises(ObservabilityError, match="outside"):
            TimeWeightedHistogram("x").quantile(1.5)
        with pytest.raises(ObservabilityError, match="negative weight"):
            hist.observe(1.0, weight=-0.1)
        zero_weight = TimeWeightedHistogram("z")
        zero_weight.observe(5.0, weight=0.0)
        assert zero_weight.mean() == 0.0
        assert zero_weight.quantile(0.5) == 5.0

    def test_registry_creates_on_demand_and_renders(self):
        registry = MetricsRegistry()
        assert registry.is_empty
        assert registry.render() == "no metrics recorded"
        registry.counter("c").inc()
        registry.gauge("g").set(9.0, 1.0)
        registry.histogram("h").observe(2.0)
        registry.histogram("empty")
        assert not registry.is_empty
        assert registry.counter("c") is registry.counter("c")
        text = registry.render()
        assert "c = 1" in text
        assert "g = 9" in text
        assert "h: n=1" in text
        assert "empty: n=0" in text


class TestJsonlExport:
    def test_byte_stable_and_roundtrips(self, tmp_path):
        events = [make_event(seq=i, time_s=float(i), host=i)
                  for i in range(3)]
        text = events_to_jsonl(events)
        assert text == events_to_jsonl(events)  # deterministic
        assert text.endswith("\n") and text.count("\n") == 3
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(events, str(path)) == 3
        assert path.read_text() == text
        assert read_jsonl(str(path)) == events

    def test_empty_trace_serializes_to_empty_string(self):
        assert events_to_jsonl([]) == ""

    def test_read_rejects_bad_json_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(events_to_jsonl([make_event()]) + "not json\n")
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2"):
            read_jsonl(str(path))

    def test_read_rejects_malformed_record_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "name": "x"}\n')
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:1"):
            read_jsonl(str(path))

    def test_read_skips_blank_lines(self, tmp_path):
        event = make_event()
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + events_to_jsonl([event]) + "\n\n")
        assert read_jsonl(str(path)) == [event]


class TestChromeExport:
    def test_lanes_metadata_and_instant_scope(self):
        events = [
            make_event(seq=0, time_s=1.0, category=CAT_POWER),
            make_event(seq=1, time_s=2.0, name="fault.x",
                       category=CAT_FAULT),
            make_event(seq=2, time_s=3.0, category=CAT_POWER),
        ]
        document = events_to_chrome(events)
        assert document["displayTimeUnit"] == "ms"
        records = document["traceEvents"]
        metadata = [r for r in records if r["ph"] == "M"]
        assert [m["args"]["name"] for m in metadata] == ["power", "fault"]
        power = [r for r in records
                 if r["ph"] == "i" and r["cat"] == CAT_POWER]
        assert all(r["tid"] == 0 and r["s"] == "t" for r in power)
        assert power[0]["ts"] == pytest.approx(1.0e6)

    def test_spans_map_to_b_e_pairs(self, tmp_path):
        tracer = RecordingTracer(clock=lambda: 1.0)
        with tracer.span("s", "sim"):
            tracer.event("tick", "sim")
        path = tmp_path / "trace.json"
        assert write_chrome_trace(tracer.events, str(path)) == 3
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == 4  # 3 events + metadata
        phases = [r["ph"] for r in document["traceEvents"]]
        assert phases == ["M", "B", "i", "E"]

    @pytest.mark.parametrize("document, message", [
        ("not a dict", "must be a JSON object"),
        ({}, "lacks a traceEvents"),
        ({"traceEvents": ["nope"]}, "not an object"),
        ({"traceEvents": [{"ph": "i"}]}, "missing"),
        ({"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "tid": 0}]},
         "unknown ph"),
        ({"traceEvents": [{"name": 7, "ph": "i", "pid": 0, "tid": 0}]},
         "not a string"),
        ({"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 0,
                           "ts": True, "args": {}}]}, "not a number"),
        ({"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 0,
                           "ts": -1.0, "args": {}}]}, "negative ts"),
        ({"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 0,
                           "ts": 0.0, "args": None}]}, "not an object"),
        ({"traceEvents": [{"name": "x", "ph": "E", "pid": 0, "tid": 0,
                           "ts": 0.0, "args": {}}]}, "E without matching B"),
        ({"traceEvents": [{"name": "x", "ph": "B", "pid": 0, "tid": 0,
                           "ts": 0.0, "args": {}}]}, "unbalanced spans"),
    ])
    def test_validation_rejects_malformed_documents(self, document, message):
        with pytest.raises(TraceFormatError, match=message):
            validate_chrome_trace(document)


class TestTimelineSummary:
    def test_empty_trace(self):
        assert timeline_summary([]) == "empty trace (0 events)"

    def test_summary_sections(self):
        tracer = RecordingTracer(clock=lambda: 10.0)
        tracer.event("power.transition", CAT_POWER,
                     **{"from": "sleeping", "to": "resuming"})
        tracer.event("migration.rehome", "migration", mib=100.0)
        tracer.event("fault.migration_abort", CAT_FAULT, fraction=0.5)
        tracer.counter("migration_mib", 100.0)
        text = timeline_summary(tracer.events, tracer.metrics)
        assert "3 events over [10.0 s, 10.0 s]" in text
        assert "sleeping -> resuming" in text
        assert "migration traffic: 100.0 MiB" in text
        assert "fault.migration_abort" in text
        assert "migration_mib = 100" in text
        # Deterministic: same trace, same text.
        assert text == timeline_summary(tracer.events, tracer.metrics)

    def test_span_counted_once(self):
        tracer = RecordingTracer()
        with tracer.span("farm.planning", "farm"):
            pass
        text = timeline_summary(tracer.events)
        assert "farm.planning                1" in text


class TestComponentEmission:
    def test_memory_server_emits_lifecycle_and_serve_events(self):
        tracer = RecordingTracer(clock=lambda: 3.0)
        store = PageStore()
        store.upload(1, {0: b"\0" * 4096})
        server = MemoryServer(host_id=2, store=store, tracer=tracer)
        server.start_serving()
        server.serve_page(1, 0)
        server.fail()
        server.repair()
        server.stop_serving()
        names = [e.name for e in tracer.events]
        assert names == [
            "memserver.start_serving", "memserver.serve_page",
            "memserver.fail", "memserver.repair", "memserver.stop_serving",
        ]
        assert all(e.category == CAT_MEMSERVER for e in tracer.events)
        assert tracer.events[1].args["vm"] == 1

    def test_memory_server_emits_injected_timeouts(self):
        tracer = RecordingTracer()
        store = PageStore()
        store.upload(1, {0: b"\0" * 4096})
        server = MemoryServer(host_id=2, store=store, tracer=tracer)
        server.start_serving()
        profile = FaultProfile(name="t", page_timeout_prob=1.0,
                               page_timeout_retries_max=3)
        injector = FaultInjector(profile, RngStreams(0), tracer)
        server.serve_page_with_retries(1, 0, injector=injector)
        names = [e.name for e in tracer.events
                 if e.name.startswith(("fault.", "memserver."))]
        assert "fault.page_timeouts" in names
        assert "memserver.fetch_timeouts" in names

    def test_injector_emission_does_not_perturb_draws(self):
        """The tracer observes injector draws without consuming RNG."""
        profile = FaultProfile(name="t", migration_abort_prob=0.5,
                               wake_failure_prob=0.5, page_timeout_prob=0.5)
        silent = FaultInjector(profile, RngStreams(3))
        traced = FaultInjector(profile, RngStreams(3), RecordingTracer())
        for _ in range(50):
            assert silent.migration_abort() == traced.migration_abort()
            assert silent.wake_outcome() == traced.wake_outcome()
            assert silent.page_timeouts() == traced.page_timeouts()

    @pytest.mark.parametrize("policy_name", ["FulltoPartial", "NewHome"])
    def test_farm_migration_events_name_distinct_endpoints(
        self, policy_name
    ):
        """Every traced migration moves a VM between two hosts; an
        in-place conversion pulls its image from the old home."""
        from repro.core import strategy_by_name
        from repro.farm import FarmConfig, simulate_day
        from repro.faults import fault_profile_by_name
        from repro.traces import DayType
        from tests.golden.update_goldens import FARM_SHAPE, FAULT_DAYS

        tracer = RecordingTracer()
        config = FarmConfig(
            **FARM_SHAPE, faults=fault_profile_by_name("heavy")
        )
        simulate_day(
            config, strategy_by_name(policy_name), DayType.WEEKDAY,
            seed=FAULT_DAYS[policy_name], tracer=tracer,
        )
        migrations = [e for e in tracer.events if e.category == "migration"]
        assert "migration.convert_in_place" in {e.name for e in migrations}
        for event in migrations:
            assert event.args["source"] != event.args["destination"], event
