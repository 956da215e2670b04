"""MetricsRegistry semantics: metrics, span trees, global switching."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    disable_observability,
    enable_observability,
    get_registry,
    set_registry,
    use_registry,
)


class TestCounters:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x") is not reg.counter("y")

    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("x").inc(-1)


class TestGauges:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("level")
        gauge.set(2.5)
        gauge.add(-0.5)
        assert gauge.value == 2.0


class TestHistograms:
    def test_bucket_placement(self):
        hist = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        payload = hist.as_dict()
        assert payload["buckets"] == [0.1, 1.0]
        assert payload["counts"] == [1, 1, 1]  # last slot is the +Inf bucket
        assert payload["count"] == 3
        assert payload["sum"] == pytest.approx(5.55)

    def test_count_and_sum_track_observations(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,))
        assert (hist.count, hist.sum) == (0, 0.0)
        hist.observe(0.5)
        hist.observe(4.0)
        assert (hist.count, hist.sum) == (2, 4.5)

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.1))


class TestSpanTree:
    def test_record_span_builds_nested_tree(self):
        reg = MetricsRegistry()
        reg.record_span(("a",), 2.0, 1.0)
        reg.record_span(("a", "b"), 0.5, 0.25, count=2)
        spans = reg.snapshot()["spans"]
        assert spans["a"]["count"] == 1
        assert spans["a"]["wall_seconds"] == 2.0
        assert spans["a"]["children"]["b"]["count"] == 2
        assert spans["a"]["children"]["b"]["cpu_seconds"] == 0.25

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MetricsRegistry().record_span((), 1.0)

    def test_snapshot_is_detached_copy(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.record_span(("a",), 1.0)
        snap = reg.snapshot()
        snap["counters"]["x"] = 99
        snap["spans"]["a"]["count"] = 99
        assert reg.snapshot()["counters"]["x"] == 1
        assert reg.snapshot()["spans"]["a"]["count"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(0.5)
        reg.record_span(("a",), 1.0)
        reg.reset()
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
        }


class TestNullRegistry:
    def test_disabled_and_inert(self):
        null = NullRegistry()
        assert not null.enabled
        null.counter("x").inc(5)
        null.gauge("g").set(1.0)
        null.histogram("h").observe(0.1)
        null.record_span(("a",), 1.0)
        assert null.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
        }

    def test_metric_objects_are_shared_noops(self):
        null = NullRegistry()
        assert null.counter("x") is null.counter("y") is null.gauge("z")

    def test_null_metrics_read_as_empty(self):
        null = NullRegistry()
        gauge = null.gauge("g")
        gauge.add(3.0)
        hist = null.histogram("h")
        hist.observe(2.0)
        assert gauge.value == 0
        assert (hist.count, hist.sum) == (0, 0.0)
        assert gauge.as_dict() == hist.as_dict() == {}


class TestGlobalRegistry:
    def test_default_is_null(self):
        assert not get_registry().enabled

    def test_use_registry_scopes_and_restores(self):
        reg = MetricsRegistry()
        before = get_registry()
        with use_registry(reg) as installed:
            assert installed is reg
            assert get_registry() is reg
        assert get_registry() is before

    def test_use_registry_restores_on_error(self):
        before = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is before

    def test_enable_is_idempotent(self):
        try:
            first = enable_observability()
            assert get_registry() is first
            assert enable_observability() is first
        finally:
            disable_observability()
        assert not get_registry().enabled

    def test_set_registry_none_restores_null(self):
        set_registry(MetricsRegistry())
        set_registry(None)
        assert not get_registry().enabled


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        workers, per_worker = 8, 2500

        def hammer():
            counter = reg.counter("hits")
            for _ in range(per_worker):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == workers * per_worker

    def test_concurrent_span_recording_is_exact(self):
        reg = MetricsRegistry()
        workers, per_worker = 8, 500

        def hammer():
            for _ in range(per_worker):
                reg.record_span(("work", "unit"), 0.001, 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = reg.snapshot()["spans"]
        assert spans["work"]["children"]["unit"]["count"] == workers * per_worker
