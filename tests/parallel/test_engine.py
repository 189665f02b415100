"""Parallel engine: worker resolution, stable seeding, fan-out semantics."""

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry, get_registry, push_registry
from repro.obs.trace import span
from repro.parallel import (
    ParallelEngine,
    WORKERS_ENV,
    resolve_workers,
    stable_entropy,
    stable_rng,
    stable_seed_sequence,
)
from repro.parallel import engine as engine_mod
from repro.parallel.engine import MODE_CODES
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    TaskFailure,
)


# Task functions must be module-level so the process pool can pickle them.
def _square(context, item):
    return item * item


def _offset(context, item):
    return context + item


def _boom(context, item):
    if item == 2:
        raise ValueError("task 2 failed")
    return item


def _nested_workers(context, item):
    # Inside a pool worker the engine must refuse to nest another pool.
    return resolve_workers(8)


def _counted(context, item):
    # A worker-side metric: its delta ships back with the task's result.
    get_registry().inc("test.engine.calls")
    return item + 1


def _counted_boom(context, item):
    get_registry().inc("test.engine.calls")
    if item == 2:
        raise ValueError("task 2 failed")
    return item + 1


@pytest.fixture
def no_probe(monkeypatch):
    """Multi-worker maps skip the probe, so every task crosses the pool."""
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_SECONDS", 0.0)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_keyword_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_floor_is_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_in_worker_forces_serial(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_IN_WORKER", True)
        assert resolve_workers(8) == 1


class TestStableSeeding:
    def test_entropy_deterministic(self):
        assert stable_entropy("a", 1, (2, 3)) == stable_entropy("a", 1, (2, 3))

    def test_entropy_distinguishes_parts(self):
        assert stable_entropy("a", 1) != stable_entropy("a", 2)
        assert stable_entropy("a") != stable_entropy("b")

    def test_tuples_and_lists_are_equivalent(self):
        assert stable_entropy((1, 2)) == stable_entropy([1, 2])

    def test_numpy_scalars_match_python_scalars(self):
        assert stable_entropy(np.int64(5)) == stable_entropy(5)

    def test_rng_reproducible(self):
        a = stable_rng("key", 1).random(4)
        b = stable_rng("key", 1).random(4)
        assert np.array_equal(a, b)

    def test_seed_sequence_spawns_independent_children(self):
        kids = stable_seed_sequence("root").spawn(3)
        draws = [np.random.default_rng(k).random() for k in kids]
        assert len(set(draws)) == 3


class TestEngineMap:
    def test_serial_map_preserves_order(self):
        with push_registry(MetricsRegistry()) as reg:
            engine = ParallelEngine(1)
            assert engine.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert reg.counter("parallel.tasks").value == 3.0
        assert engine.workers == 1

    def test_parallel_matches_serial(self, no_probe):
        items = list(range(6))
        serial = ParallelEngine(1).map(_offset, items, context=10)
        pooled = ParallelEngine(3).map(_offset, items, context=10)
        assert serial == pooled == [10 + i for i in items]

    def test_single_item_stays_serial(self):
        engine = ParallelEngine(4)
        assert engine.map(_square, [5]) == [25]

    def test_exception_propagates_from_pool(self, no_probe):
        with pytest.raises(ValueError, match="task 2"):
            ParallelEngine(2).map(_boom, [1, 2, 3])

    def test_exception_propagates_serially(self):
        with pytest.raises(ValueError, match="task 2"):
            ParallelEngine(1).map(_boom, [1, 2, 3])

    def test_nested_fanout_serializes(self, no_probe):
        engine = ParallelEngine(2)
        assert engine.map(_nested_workers, [0, 1]) == [1, 1]


class TestSerialFallback:
    """Tiny fan-outs must skip the pool; the mode gauge must say which
    path ran."""

    def test_small_work_falls_back_to_serial(self):
        with push_registry() as reg:
            engine = ParallelEngine(4)  # default threshold, trivial tasks
            assert engine.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert reg.gauge("parallel.mode").snapshot() == \
            float(MODE_CODES["serial-fallback"])

    def test_disabled_heuristic_uses_pool(self, no_probe):
        with push_registry() as reg:
            with ParallelEngine(2) as engine:
                assert engine.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert reg.gauge("parallel.mode").snapshot() == \
            float(MODE_CODES["pool"])

    def test_serial_engine_reports_serial_mode(self):
        with push_registry() as reg:
            assert ParallelEngine(1).map(_square, [2]) == [4]
        assert reg.gauge("parallel.mode").snapshot() == \
            float(MODE_CODES["serial"])

    def test_fallback_preserves_keys_and_callbacks(self):
        seen = {}
        engine = ParallelEngine(4)  # heuristic active
        results = engine.map(_square, [1, 2, 3], keys=["a", "b", "c"],
                             on_result=lambda i, v: seen.setdefault(i, v))
        assert results == [1, 4, 9]
        assert seen == {0: 1, 1: 4, 2: 9}

    def test_fallback_failure_keeps_global_index(self):
        engine = ParallelEngine(4)  # probe succeeds, tail fails serially
        results = engine.map(_boom, [1, 2, 3], return_failures=True)
        assert results[0] == 1 and results[2] == 3
        assert isinstance(results[1], TaskFailure)
        assert results[1].task_index == 1


class TestWorkerMetrics:
    """Worker-side metric deltas merge into the parent once per task."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_merged_once_per_task(self, workers, no_probe):
        with push_registry(MetricsRegistry()) as registry:
            with ParallelEngine(workers, name="m") as engine:
                results = engine.map(_counted, list(range(8)))
        assert results == [i + 1 for i in range(8)]
        assert registry.counter("test.engine.calls").value == 8

    def test_worker_death_merges_each_success_once(self):
        injector = FaultInjector(
            FaultPlan.single("worker_death", rate=0.3, max_failures=1, seed=7)
        )
        with push_registry(MetricsRegistry()) as registry:
            with ParallelEngine(2, name="m", retry=RetryPolicy.fast(),
                                faults=injector) as engine:
                results = engine.map(_counted, list(range(10)))
        assert results == [i + 1 for i in range(10)]
        assert any(d.kind == "worker_death" for d in injector.injected)
        assert registry.counter("test.engine.calls").value == 10


class TestFailedMapRecordsMode:
    """A map that raises still says where it ran."""

    def _failed_map(self, workers, items):
        with push_registry(MetricsRegistry()) as reg:
            with span("root") as root:
                with ParallelEngine(workers) as engine:
                    with pytest.raises(ValueError, match="task 2"):
                        engine.map(_boom, items)
        (fanout,) = root.children
        assert fanout.counters["parallel.map.wall_seconds"] >= 0.0
        assert fanout.counters["parallel.map.mode"] == \
            reg.gauge("parallel.mode").snapshot()
        return reg.gauge("parallel.mode").snapshot()

    def test_pooled_failure_records_pool(self, no_probe):
        assert self._failed_map(2, [1, 2, 3]) == float(MODE_CODES["pool"])

    def test_failed_probe_records_fallback(self):
        # Task 0 fails in the probe round, which ran in this process.
        assert self._failed_map(4, [2, 3, 4]) == \
            float(MODE_CODES["serial-fallback"])


class TestModeEquivalence:
    """Serial, pooled and probe-fallback maps give the same results,
    failure records, injections and counters."""

    COUNTERS = ("resilience.retries", "resilience.task_failures",
                "parallel.tasks", "test.engine.calls")

    def _run(self, workers, plan=None, items=12):
        injector = FaultInjector(plan) if plan is not None else None
        with push_registry(MetricsRegistry()) as reg:
            with ParallelEngine(workers, retry=RetryPolicy.fast(),
                                faults=injector) as engine:
                results = engine.map(_counted_boom, list(range(items)),
                                     return_failures=True)
        slots = [
            (r.task_index, r.task_key, r.attempts, type(r.cause))
            if isinstance(r, TaskFailure) else r
            for r in results
        ]
        injected = sorted(
            (d.kind, d.site, d.key, d.attempt) for d in injector.injected
        ) if injector is not None else []
        counters = {name: reg.counter(name).value for name in self.COUNTERS}
        return (slots, injected, counters,
                reg.gauge("parallel.mode").snapshot())

    def test_faulted_serial_and_pool_agree(self):
        plan = FaultPlan(seed=5, rules=(FaultRule("task_error", 0.4),
                                        FaultRule("fatal", 0.15)))
        serial = self._run(1, plan)
        pooled = self._run(2, plan)
        assert serial[3] == float(MODE_CODES["serial"])
        assert pooled[3] == float(MODE_CODES["pool"])
        assert {kind for kind, *_ in serial[1]} == {"task_error", "fatal"}
        assert serial[:3] == pooled[:3]

    def test_fallback_and_serial_agree(self):
        # Few items keep the probe's estimate well under the threshold.
        serial = self._run(1, items=4)
        fallback = self._run(4, items=4)
        assert fallback[3] == float(MODE_CODES["serial-fallback"])
        assert serial[:3] == fallback[:3]
        assert isinstance(serial[0][2], tuple)  # item 2's failure record
