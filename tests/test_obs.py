"""Unit tests for the zero-dependency telemetry package (:mod:`repro.obs`).

The observability layer's own guarantees, independent of the serving stack:

* **registry** — counters/gauges/histograms share one snapshot schema,
  function-backed series and ``STATS`` tables read hot-path state at scrape
  time only, and the snapshot renders to valid Prometheus text exposition;
* **tracing** — spans reconstruct a parent chain across processes from
  nothing but random hex ids, and the store is bounded (LRU traces, capped
  spans per trace) so a long-lived server can't grow without bound;
* **flight recorder** — a bounded ring whose ``dump()`` never raises and
  persists a post-mortem JSON artifact when given a directory;
* **logging** — structured events are dark until :func:`configure_logging`
  and single-line JSON after;
* **stage clock** — the shared ``act``/``act_batch`` timing helper feeds
  :class:`StageTimings` exactly like the old inline ``perf_counter`` blocks
  and emits per-stage child spans only when a trace is active.
"""

import io
import json
import logging as stdlib_logging

import pytest

from repro.core.agent import StageTimings
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    SpanStore,
    configure_logging,
    get_logger,
    log_event,
    new_span_id,
    new_trace_id,
    render_prometheus,
    stat_values,
    summarize_snapshot,
)


# -------------------------------------------------------------- instruments
class TestInstruments:
    def test_counter_counts_and_rejects_negative(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labelled_counter_keeps_series_separate(self):
        counter = Counter("by_kind_total", label_names=("kind",))
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 3
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc()  # missing the declared label

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("sessions_open")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3

    def test_histogram_buckets_are_cumulative_with_inf(self):
        histogram = Histogram("latency_ms", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            histogram.observe(value)
        (sample,) = histogram.describe()["samples"]
        assert sample["buckets"] == [[1.0, 2], [10.0, 3], ["+Inf", 4]]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(106.2)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("empty", buckets=())

    def test_default_latency_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
            DEFAULT_LATENCY_BUCKETS_MS
        )


# ----------------------------------------------------------------- registry
class TestMetricsRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("decisions_total")
        second = registry.counter("decisions_total")
        assert first is second

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_collector_merges_at_snapshot_time(self):
        registry = MetricsRegistry()
        registry.counter("own_total", help="owned").inc(2)
        calls = {"count": 0}

        def read():
            calls["count"] += 1
            return 7

        registry.counter("bare_total", "from a bare attribute", read=read)
        assert calls["count"] == 0  # zero cost until scraped
        snapshot = registry.snapshot()
        assert calls["count"] == 1
        assert snapshot["own_total"]["samples"][0]["value"] == 2
        assert snapshot["bare_total"] == {
            "type": "counter",
            "help": "from a bare attribute",
            "samples": [{"labels": {}, "value": 7.0}],
        }
        registry.prometheus()
        assert calls["count"] == 2

    def test_collector_samples_append_to_existing_family(self):
        registry = MetricsRegistry()
        registry.gauge("mixed", labels=("source",)).set(1.0, source="own")
        registry.gauge("mixed", labels=("source",), read=lambda: {"read": 2.0})
        samples = registry.snapshot()["mixed"]["samples"]
        assert {s["labels"]["source"]: s["value"] for s in samples} == {
            "own": 1.0, "read": 2.0,
        }

    def test_function_backed_series_take_at_most_one_label(self):
        with pytest.raises(ValueError, match="at most one label"):
            MetricsRegistry().gauge("wide", labels=("a", "b"), read=dict)

    def test_stats_table_renders_both_surfaces_and_reads_only_when_asked(self):
        """One ``STATS`` table, two renderings: registry series for the rows
        that name one, ``{attribute: value}`` for a stats reply — and neither
        touches the owner until it is asked to."""
        reads = []

        class Owner:
            STATS = (
                ("num_things", "things_total", "counter", "Things seen"),
                ("by_stage", "stage_ms", "gauge", "Per stage", "stage"),
                ("pending",),  # a zero-argument method, stats reply only
                ("note",),
            )
            num_things = 3
            note = None

            @property
            def by_stage(self):
                reads.append("by_stage")
                return {"features": 0.5, "policy": 0.25}

            def pending(self):
                reads.append("pending")
                return 4

        owner = Owner()
        registry = MetricsRegistry()
        registry.expose(owner)
        owner.num_things += 2  # a plain attribute bump, no registry call
        assert reads == []
        snapshot = registry.snapshot()
        assert reads == ["by_stage"]
        assert set(snapshot) == {"things_total", "stage_ms"}
        assert snapshot["things_total"] == {
            "type": "counter",
            "help": "Things seen",
            "samples": [{"labels": {}, "value": 5.0}],
        }
        assert snapshot["stage_ms"]["samples"] == [
            {"labels": {"stage": "features"}, "value": 0.5},
            {"labels": {"stage": "policy"}, "value": 0.25},
        ]
        assert stat_values(owner) == {
            "num_things": 5,
            "by_stage": {"features": 0.5, "policy": 0.25},
            "pending": 4,
            "note": None,
        }

    def test_prometheus_rendering(self):
        registry = MetricsRegistry(namespace="decima")
        registry.counter("decisions_total", help="Decisions served.").inc(5)
        registry.histogram("latency_ms", buckets=(1.0,)).observe(0.4)
        body = registry.prometheus()
        assert "# HELP decima_decisions_total Decisions served." in body
        assert "# TYPE decima_decisions_total counter" in body
        assert "decima_decisions_total 5.0" in body
        assert 'decima_latency_ms_bucket{le="1.0"} 1' in body
        assert 'decima_latency_ms_bucket{le="+Inf"} 1' in body
        assert "decima_latency_ms_count 1" in body

    def test_prometheus_extra_labels_tag_every_sample(self):
        registry = MetricsRegistry()
        registry.counter("decisions_total").inc()
        body = render_prometheus(
            registry.snapshot(), extra_labels={"shard": "3"}
        )
        assert 'decima_decisions_total{shard="3"} 1.0' in body

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", labels=("name",)).inc(
            name='with "quotes"\nand newline'
        )
        body = registry.prometheus()
        assert '\\"quotes\\"' in body
        assert "\\nand" in body

    def test_summarize_degrades_on_empty_snapshot(self):
        line = summarize_snapshot({})
        assert "v-" in line
        assert "decisions=-" in line

    def test_summarize_reads_core_series(self):
        registry = MetricsRegistry()
        registry.gauge("policy_version").set(4)
        registry.counter("decisions_total").inc(12)
        line = summarize_snapshot(registry.snapshot())
        assert "v4" in line
        assert "decisions=12" in line


# ------------------------------------------------------------------ tracing
class TestTracing:
    def test_ids_are_random_hex(self):
        assert new_trace_id() != new_trace_id()
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8

    def test_child_chains_trace_and_parent(self):
        root = Span("client.decide", service="client")
        child = root.child("router.forward")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_finish_files_into_store_once(self):
        store = SpanStore()
        span = Span("op", store=store)
        span.finish(duration_ms=5.0)
        span.finish(duration_ms=99.0)  # idempotent
        (stored,) = store.get(span.trace_id)
        assert stored["duration_ms"] == 5.0
        assert stored["name"] == "op"

    def test_store_span_returns_none_for_untraced_context(self):
        store = SpanStore()
        assert store.span("server.decide", None) is None
        assert store.span("server.decide", {}) is None
        assert store.span("server.decide", {"span_id": "xx"}) is None

    def test_store_span_continues_wire_context(self):
        store = SpanStore()
        context = {"trace_id": "t" * 16, "span_id": "p" * 8}
        span = store.span("server.decide", context, service="server")
        span.finish()
        (stored,) = store.get("t" * 16)
        assert stored["parent_id"] == "p" * 8
        assert stored["service"] == "server"

    def test_store_evicts_oldest_trace(self):
        store = SpanStore(max_traces=2)
        for index in range(3):
            store.add({"trace_id": f"trace-{index}", "name": "op"})
        assert store.trace_ids() == ["trace-1", "trace-2"]
        assert store.num_evicted_traces == 1
        assert store.get("trace-0") == []

    def test_store_caps_spans_per_trace(self):
        store = SpanStore(max_spans_per_trace=2)
        for index in range(5):
            store.add({"trace_id": "t", "name": f"op{index}"})
        assert len(store.get("t")) == 2


# ------------------------------------------------------------------- flight
class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3, service="s")
        for index in range(5):
            recorder.record("decision", index=index)
        events = recorder.events()
        assert [event["index"] for event in events] == [2, 3, 4]
        assert recorder.num_events == 5

    def test_dump_payload_and_stats(self):
        recorder = FlightRecorder(capacity=8, service="shard-0")
        recorder.record("breaker_open")
        payload = recorder.dump("slo_breaker_open")
        assert payload["service"] == "shard-0"
        assert payload["reason"] == "slo_breaker_open"
        assert payload["events"][0]["kind"] == "breaker_open"
        stats = stat_values(recorder)
        assert stats["num_dumps"] == 1
        assert stats["last_dump_reason"] == "slo_breaker_open"

    def test_dump_writes_artifact_when_dir_configured(self, tmp_path):
        recorder = FlightRecorder(service="shard-1", dump_dir=str(tmp_path))
        recorder.record("policy_swap", from_version=1, to_version=2)
        payload = recorder.dump("shard_death")
        assert payload["path"].endswith("flight-shard-1-1.json")
        on_disk = json.loads((tmp_path / "flight-shard-1-1.json").read_text())
        assert on_disk["reason"] == "shard_death"
        assert on_disk["events"][0]["kind"] == "policy_swap"

    def test_dump_never_raises_on_bad_dir(self):
        recorder = FlightRecorder(
            service="s", dump_dir="/proc/definitely-not-writable/x"
        )
        recorder.record("decision")
        payload = recorder.dump("on_demand")
        assert "path" not in payload
        assert payload["events"]


# ------------------------------------------------------------------ logging
class TestStructuredLogging:
    def test_events_are_single_line_json(self):
        stream = io.StringIO()
        logger = configure_logging(stream=stream, logger_name="repro.test_json")
        log_event(logger, "session_open", session_id="s1", num_executors=4)
        (line,) = stream.getvalue().strip().splitlines()
        record = json.loads(line)
        assert record["event"] == "session_open"
        assert record["session_id"] == "s1"
        assert record["level"] == "info"

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        first = configure_logging(stream=stream, logger_name="repro.test_idem")
        second = configure_logging(stream=stream, logger_name="repro.test_idem")
        assert first is second
        assert len(first.handlers) == 1

    def test_unconfigured_logger_stays_dark(self):
        logger = get_logger("test_dark_namespace")
        logger.setLevel(stdlib_logging.ERROR)
        # No handler, level above INFO: log_event must be a cheap no-op.
        log_event(logger, "ignored", detail="x")


# -------------------------------------------------------------- stage clock
class TestStageClock:
    def mark_all(self, clock):
        clock.mark()
        clock.mark()
        clock.mark()
        return clock.finish()

    def test_untraced_clock_accumulates_timings_only(self):
        timings = StageTimings()
        durations = self.mark_all(timings.clock())
        assert len(durations) == len(StageTimings.STAGES)
        assert timings.num_steps == 1
        assert stat_values(timings)["num_steps"] == 1
        assert tuple(timings.mean_ms) == StageTimings.STAGES

    def test_traced_clock_emits_one_child_span_per_stage(self):
        store = SpanStore()
        parent = Span("broker.decide", service="server", store=store)
        timings = StageTimings()
        durations = self.mark_all(timings.clock(parent_spans=(parent,)))
        parent.finish()
        spans = store.get(parent.trace_id)
        stage_spans = [s for s in spans if s["name"].startswith("stage.")]
        assert [s["name"] for s in stage_spans] == [
            "stage." + stage for stage in StageTimings.STAGES
        ]
        for span, duration in zip(stage_spans, durations):
            assert span["parent_id"] == parent.span_id
            assert span["duration_ms"] == pytest.approx(duration * 1e3)
        # Stage children tile the parent window: consecutive start times.
        starts = [s["start_time"] for s in stage_spans]
        assert starts == sorted(starts)

    def test_none_parents_are_filtered(self):
        timings = StageTimings()
        clock = timings.clock(parent_spans=(None, None))
        self.mark_all(clock)
        assert timings.num_steps == 1

    def test_wrong_mark_count_raises(self):
        timings = StageTimings()
        clock = timings.clock()
        clock.mark()
        with pytest.raises(RuntimeError, match="expected 4"):
            clock.finish()
