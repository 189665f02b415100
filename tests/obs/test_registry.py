"""MetricsRegistry: instruments, snapshots, thread and process safety."""

import threading

import pytest

from repro.obs.registry import (
    METRICS_SCHEMA,
    MetricsRegistry,
    get_registry,
    push_registry,
)
from repro.parallel import ParallelEngine
from repro.parallel import engine as engine_mod


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 2.5)
        assert reg.counter("a.b").snapshot() == 3.5

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1.0)

    def test_gauge_is_a_level(self):
        reg = MetricsRegistry()
        reg.set("g", 5.0)
        reg.set("g", 2.0)
        assert reg.gauge("g").snapshot() == 2.0

    def test_histogram_tracks_distribution(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.mean == pytest.approx(55.5 / 3)

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_name_unique_across_kinds(self):
        reg = MetricsRegistry()
        reg.counter("taken")
        with pytest.raises(ValueError):
            reg.gauge("taken")


class TestSnapshots:
    def test_snapshot_schema_and_shape(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set("g", 7)
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["counters"] == {"c": 2.0}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_diff_subtracts_counters_keeps_gauges(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set("g", 1)
        before = reg.snapshot()
        reg.inc("c", 3)
        reg.set("g", 9)
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert delta["counters"] == {"c": 3.0}
        assert delta["gauges"] == {"g": 9.0}

    def test_diff_histograms(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5)
        before = reg.snapshot()
        reg.observe("h", 0.5)
        reg.observe("h", 0.5)
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert delta["histograms"]["h"]["count"] == 2
        assert delta["histograms"]["h"]["sum"] == pytest.approx(1.0)

    def test_merge_round_trip(self):
        source = MetricsRegistry()
        source.inc("c", 4)
        source.set("g", 3)
        source.observe("h", 2.0)
        target = MetricsRegistry()
        target.inc("c", 1)
        target.observe("h", 0.5)
        target.merge(source.snapshot())
        assert target.counter("c").snapshot() == 5.0
        assert target.gauge("g").snapshot() == 3.0
        hist = target.histogram("h")
        assert hist.count == 2
        assert hist.min == 0.5 and hist.max == 2.0

    def test_empty_diff_drops_unchanged(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        snap = reg.snapshot()
        delta = MetricsRegistry.diff(snap, snap)
        assert delta["counters"] == {}
        assert delta["histograms"] == {}


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")

        def worker():
            for _ in range(5000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.snapshot() == 8 * 5000


def _registry_task(context, item):
    """Module-level task: writes to the (worker-local) default registry."""
    get_registry().inc("test.tasks")
    get_registry().observe("test.seconds", 0.01 * item)
    return item * 2


class TestProcessSafety:
    """Worker-process metric deltas must merge back into the parent."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_registry_totals_worker_count_invariant(self, workers):
        with push_registry() as reg:
            with ParallelEngine(workers=workers, name="t") as engine:
                results = engine.map(_registry_task, list(range(6)))
        assert results == [i * 2 for i in range(6)]
        assert reg.counter("test.tasks").snapshot() == 6.0
        assert reg.histogram("test.seconds").count == 6
        # engine-side metrics also land process-wide
        assert reg.counter("parallel.tasks").snapshot() == 6.0
        assert reg.histogram("parallel.task.exec_seconds").count == 6

    def test_queue_timing_recorded_in_pool_mode(self, monkeypatch):
        # disable the serial-fallback heuristic: queue timings only
        # exist when tasks genuinely cross the pool
        monkeypatch.setattr(engine_mod, "MIN_PARALLEL_SECONDS", 0.0)
        with push_registry() as reg:
            with ParallelEngine(workers=2, name="t") as engine:
                engine.map(_registry_task, list(range(4)))
        hist = reg.histogram("parallel.task.queue_seconds")
        assert hist.count == 4
        assert hist.min >= 0.0
