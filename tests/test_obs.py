"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json
import threading

import pytest

import repro
from repro import obs
from repro.obs.instruments import Counter, Histogram
from repro.obs import flight
from repro.obs.registry import MetricsRegistry


class TestCounter:
    def test_inc_and_add(self):
        counter = Counter("c")
        counter.inc()
        counter.add(41)
        assert counter.value == 42

    def test_concurrent_increments_none_lost(self):
        counter = Counter("c")
        threads = [
            threading.Thread(target=lambda: [counter.inc() for _ in range(5000)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * 5000


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("h")
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 0.001
        assert snap["max"] == 0.003
        assert snap["mean"] == pytest.approx(0.002)
        assert snap["sum"] == pytest.approx(0.006)

    def test_buckets_cover_range_and_overflow(self):
        histogram = Histogram("h")
        histogram.observe(5e-7)   # below the first bound
        histogram.observe(0.5)    # mid-range
        histogram.observe(100.0)  # beyond the last bound
        buckets = histogram.snapshot()["buckets"]
        assert buckets["le_1e-06"] == 1
        assert buckets["le_1"] == 1
        assert buckets["le_inf"] == 1

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h").snapshot()["mean"] == 0.0


class TestRegistry:
    def test_lazy_creation_and_identity(self):
        registry = MetricsRegistry("t")
        assert len(registry) == 0
        counter = registry.counter("a")
        assert registry.counter("a") is counter
        assert len(registry) == 1

    def test_counter_value_of_missing_is_zero(self):
        assert MetricsRegistry("t").counter_value("never") == 0

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry("t")
        registry.counter("a").add(3)
        registry.histogram("b").observe(0.1)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["histograms"]["b"]["count"] == 1
        registry.reset()
        assert len(registry) == 0
        assert registry.snapshot() == {"counters": {}, "histograms": {}}


class TestTrace:
    """Spans are ``span`` events in the flight ring (plus a histogram)."""

    def test_ring_buffer_bounded(self):
        with obs.capture():
            flight.enable()
            flight.configure(capacity=3)
            for index in range(5):
                with obs.span(f"e{index}"):
                    pass
            names = [entry["name"] for entry in obs.span_entries(flight.events())]
            assert names == ["e2", "e3", "e4"]
            assert obs.snapshot(trace_tail=1)["trace"][0]["name"] == "e4"

    def test_span_records_event_and_histogram(self):
        with obs.capture() as registry:
            flight.enable()
            with obs.span("unit.work", detail="x", trace_id="t1"):
                pass
            (event,) = flight.events(kind="span")
        assert event.data["name"] == "unit.work" and event.data["ok"]
        assert event.data["detail"] == "x" and event.trace_id == "t1"
        assert "trace_id" not in event.data
        (entry,) = obs.span_entries([event])
        assert entry["meta"] == {"detail": "x", "trace_id": "t1"}
        assert registry.snapshot()["histograms"]["unit.work.seconds"]["count"] == 1

    def test_span_marks_failures(self):
        with obs.capture():
            flight.enable()
            with pytest.raises(ValueError):
                with obs.span("unit.boom"):
                    raise ValueError("boom")
            event = flight.events(kind="span")[-1]
        assert event.data["name"] == "unit.boom" and not event.data["ok"]

    def test_ring_off_records_the_histogram_only(self):
        with obs.capture() as registry:
            with obs.span("unit.metrics_only"):
                pass
            assert len(flight.get_recorder()) == 0
        assert registry.snapshot()["histograms"]["unit.metrics_only.seconds"]["count"] == 1

    def test_metrics_off_records_the_event_only(self):
        with obs.capture(enabled=False) as registry:
            flight.enable()
            with obs.span("unit.ring_only"):
                pass
            assert [e.data["name"] for e in flight.events(kind="span")] == ["unit.ring_only"]
        assert len(registry) == 0

    def test_span_disabled_is_inert(self):
        with obs.capture(enabled=False) as registry:
            assert obs.span("unit.skip") is obs.span("unit.other")
            with obs.span("unit.skip"):
                pass
            assert len(flight.get_recorder()) == 0
        assert len(registry) == 0


class TestInstrumented:
    def test_counts_calls_and_latency(self):
        wrapped = obs.instrumented("unit.fn", lambda x: x + 1)
        with obs.capture() as registry:
            assert wrapped(1) == 2
            assert wrapped(2) == 3
        assert registry.counter_value("unit.fn.calls") == 2
        assert registry.counter_value("unit.fn.errors") == 0
        assert registry.snapshot()["histograms"]["unit.fn.seconds"]["count"] == 2

    def test_counts_errors_and_reraises(self):
        def explode():
            raise RuntimeError("nope")

        wrapped = obs.instrumented("unit.bad", explode)
        with obs.capture() as registry:
            with pytest.raises(RuntimeError):
                wrapped()
        assert registry.counter_value("unit.bad.calls") == 1
        assert registry.counter_value("unit.bad.errors") == 1

    def test_wrapper_preserves_identity(self):
        def documented():
            """Doc line."""

        wrapped = obs.instrumented("unit.doc", documented)
        assert wrapped.__name__ == "documented"
        assert wrapped.__doc__ == "Doc line."
        assert wrapped.__wrapped__ is documented

    def test_one_shot_call(self):
        with obs.capture() as registry:
            assert obs.call("unit.once", int, "7") == 7
        assert registry.counter_value("unit.once.calls") == 1


class TestShards:
    """Wrappers record lock-free into shards; every read of the
    instruments is what locked ``observe``/``inc`` calls would give."""

    DURATIONS = (5e-7, 3e-6, 3e-6, 2e-4, 0.05, 12.0)

    @pytest.fixture
    def clock(self, monkeypatch):
        """``perf_counter`` for the wrappers: each call pair spans the
        next of :data:`DURATIONS`."""
        ticks = []
        for duration in self.DURATIONS * 2:
            ticks += [0.0, duration]
        monkeypatch.setattr(obs, "perf_counter", iter(ticks).__next__)

    def test_every_read_matches_locked_recording(self, clock):
        first = obs.instrumented("unit.sharded", lambda: None)
        second = obs.instrumented("unit.sharded", lambda: None)
        reference = Histogram("unit.sharded.seconds")
        with obs.capture() as registry:
            for index, duration in enumerate(self.DURATIONS):
                (first if index % 2 else second)()
                reference.observe(duration)
            snapshot = registry.snapshot()
        assert registry.counter_value("unit.sharded.calls") == len(self.DURATIONS)
        assert snapshot["counters"]["unit.sharded.calls"] == len(self.DURATIONS)
        merged, expected = snapshot["histograms"]["unit.sharded.seconds"], reference.snapshot()
        assert merged["sum"] == pytest.approx(expected.pop("sum"))
        assert merged["mean"] == pytest.approx(expected.pop("mean"))
        assert {key: merged[key] for key in expected} == expected

    def test_reset_and_registry_switches(self):
        wrapped = obs.instrumented("unit.switch", lambda: None)
        with obs.capture() as outer:
            wrapped()
            with obs.capture() as inner:
                wrapped()
                wrapped()
            wrapped()
            assert inner.counter_value("unit.switch.calls") == 2
            assert outer.counter_value("unit.switch.calls") == 2
            # One shard per registry, reused on every return to it.
            assert len(outer.counter("unit.switch.calls")._shards) == 1
            outer.reset()
            assert outer.counter_value("unit.switch.calls") == 0
            wrapped()
            assert outer.counter_value("unit.switch.calls") == 1
            assert outer.histogram("unit.switch.seconds").count == 1

    def test_a_freed_wrapper_folds_into_the_instrument(self):
        import gc

        with obs.capture() as registry:
            for _ in range(3):
                wrapped = obs.instrumented("unit.gone", lambda: None)
                wrapped()
                wrapped()
            del wrapped
            gc.collect()
            counter = registry.counter("unit.gone.calls")
            assert counter.value == 6
            assert registry.histogram("unit.gone.seconds").count == 6
            assert counter._shards == []


class TestCapture:
    def test_restores_previous_state(self):
        outer_registry = obs.get_registry()
        previously_enabled = obs.is_enabled()
        with obs.capture() as inner:
            assert obs.is_enabled()
            assert obs.get_registry() is inner
        assert obs.get_registry() is outer_registry
        assert obs.is_enabled() == previously_enabled


class TestExport:
    def test_text_rendering(self):
        with obs.capture() as registry:
            registry.counter("render.calls").add(7)
            registry.histogram("render.seconds").observe(0.25)
        text = obs.render_text(registry.snapshot())
        assert "render.calls" in text and "7" in text
        assert "render.seconds" in text and "250.000ms" in text

    def test_empty_snapshot_text(self):
        assert obs.render_text({"counters": {}, "histograms": {}}) \
            == "(no metrics recorded)"

    def test_json_round_trips(self):
        with obs.capture() as registry:
            registry.counter("a").inc()
        parsed = json.loads(obs.render_json(registry.snapshot()))
        assert parsed["counters"] == {"a": 1}


WORKLOAD = [
    "CREATE TABLE t (k INTEGER, v ELEMENT)",
    "INSERT INTO t VALUES (1, element('{[1999-01-01, 1999-06-30]}'))",
    "INSERT INTO t VALUES (2, element('{[1999-04-01, NOW]}'))",
]
QUERY = (
    "SELECT k, tip_text(tunion(v, element('{[1999-05-01, NOW]}'))) "
    "FROM t ORDER BY k"
)


class TestDisabledInertness:
    """Satellite: instrumentation must be observably inert when off."""

    def _run_workload(self):
        connection = repro.connect(now="2000-01-01")
        try:
            for statement in WORKLOAD:
                connection.execute(statement)
            return connection.query(QUERY)
        finally:
            connection.close()

    def test_same_results_and_untouched_registry(self):
        with obs.capture(enabled=True) as registry_on:
            rows_enabled = self._run_workload()
        with obs.capture(enabled=False) as registry_off:
            rows_disabled = self._run_workload()
        assert rows_enabled == rows_disabled
        # The enabled run really exercised the instrumented paths ...
        assert registry_on.counter_value("blade.routine.tunion.calls") == 2
        assert registry_on.counter_value("element.periods_processed") > 0
        # ... and the disabled run created not a single instrument.
        assert len(registry_off) == 0

    def test_disabled_aggregate_path_is_inert(self):
        with obs.capture(enabled=False) as registry:
            connection = repro.connect(now="2000-01-01")
            try:
                for statement in WORKLOAD:
                    connection.execute(statement)
                connection.query("SELECT tip_text(group_union(v)) FROM t")
            finally:
                connection.close()
        assert len(registry) == 0
