"""Engine-level resilience: retries, worker death, failure identity.

Task functions must be module-level (picklable) so the pool path can ship
them; every scenario is exercised serially and with a real process pool.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs.registry import MetricsRegistry, push_registry
from repro.parallel import engine as engine_mod
from repro.parallel.engine import ParallelEngine
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    TaskFailure,
    TransientTaskError,
)


def _double(context, item):
    return item * 2


def _slow_double(context, item):
    # Long enough that a worker death strands other tasks in the pool.
    time.sleep(0.02)
    return item * 2


def _boom_on_two(context, item):
    if item == 2:
        raise ValueError(f"task {item} exploded")
    return item


@pytest.fixture(params=[1, 2], ids=["serial", "pool"])
def workers(request, monkeypatch):
    """Worker count.  The pool case skips the probe (which would keep
    these trivial tasks in-process) and checks that tasks crossed it."""
    if request.param == 1:
        yield 1
        return
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_SECONDS", 0.0)
    with push_registry(MetricsRegistry()) as registry:
        yield 2
    assert registry.histogram("parallel.task.queue_seconds").count > 0


class TestTransientFaultRetry:
    def test_injected_failures_converge_to_clean_results(self, workers):
        injector = FaultInjector(
            FaultPlan.single("task_error", rate=0.4, max_failures=1, seed=3)
        )
        with ParallelEngine(workers, name="t", retry=RetryPolicy.fast(),
                            faults=injector) as engine:
            results = engine.map(_double, list(range(12)))
        assert results == [i * 2 for i in range(12)]
        assert injector.count > 0

    def test_results_identical_across_worker_counts(self):
        outputs = []
        for count in (1, 2):
            injector = FaultInjector(
                FaultPlan.single("task_error", rate=0.4, max_failures=1, seed=3)
            )
            with ParallelEngine(count, name="t", retry=RetryPolicy.fast(),
                                faults=injector) as engine:
                outputs.append(engine.map(_double, list(range(12))))
        assert outputs[0] == outputs[1]

    def test_without_policy_injected_fault_propagates(self, workers):
        injector = FaultInjector(FaultPlan.single("task_error", rate=1.0))
        with ParallelEngine(workers, name="t", faults=injector) as engine:
            with pytest.raises(TransientTaskError):
                engine.map(_double, [1, 2, 3])


class TestWorkerDeath:
    def test_pool_is_recreated_and_results_complete(self):
        injector = FaultInjector(
            FaultPlan.single("worker_death", rate=0.3, max_failures=1, seed=7)
        )
        with ParallelEngine(2, name="t", retry=RetryPolicy.fast(),
                            faults=injector) as engine:
            results = engine.map(_double, list(range(10)))
        assert results == [i * 2 for i in range(10)]
        assert any(d.kind == "worker_death" for d in injector.injected)

    def test_pool_broken_during_submission_resubmits_the_rest(
            self, monkeypatch):
        submits = []

        class BreaksOnThirdSubmit(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(self)
                if len(submits) == 3:
                    raise BrokenProcessPool("a worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                            BreaksOnThirdSubmit)
        monkeypatch.setattr(engine_mod, "MIN_PARALLEL_SECONDS", 0.0)
        with push_registry(MetricsRegistry()) as registry:
            with ParallelEngine(2, name="t",
                                retry=RetryPolicy.fast()) as engine:
                results = engine.map(_double, list(range(6)))
        assert results == [i * 2 for i in range(6)]
        # Tasks 0-1 were accepted; 2-5 went to the next round's new pool.
        assert len(submits) == 3 + 4
        assert submits[0] is not submits[-1]
        assert registry.counter("resilience.pool.recreations").value == 1
        assert registry.counter("parallel.tasks").value == 6

    def test_each_attempt_is_recorded_once(self):
        # Deaths break the pool under in-flight tasks that carry their own
        # rejection; replaying them at the same attempt records nothing
        # new, so the record is the plan's, not the pool's timing.
        plan = FaultPlan(seed=11, rules=(FaultRule("worker_death", 0.25),
                                         FaultRule("job_rejection", 0.5)))
        records = []
        for _ in range(3):
            injector = FaultInjector(plan)
            with ParallelEngine(2, name="t", retry=RetryPolicy.fast(),
                                faults=injector) as engine:
                results = engine.map(_slow_double, list(range(16)))
            assert results == [i * 2 for i in range(16)]
            triples = [(d.site, d.key, d.attempt) for d in injector.injected]
            assert len(triples) == len(set(triples))
            records.append(sorted((d.kind,) + triple
                                  for d, triple in zip(injector.injected,
                                                       triples)))
        kinds = {kind for kind, *_ in records[0]}
        assert kinds == {"worker_death", "job_rejection"}
        assert records[0] == records[1] == records[2]

    def test_serial_worker_death_is_retried_to_same_results(self):
        injector = FaultInjector(
            FaultPlan.single("worker_death", rate=0.3, max_failures=1, seed=7)
        )
        with ParallelEngine(1, name="t", retry=RetryPolicy.fast(),
                            faults=injector) as engine:
            results = engine.map(_double, list(range(10)))
        assert results == [i * 2 for i in range(10)]


class TestFailureIdentity:
    def test_exception_carries_task_failure_record(self, workers):
        with ParallelEngine(workers, name="t") as engine:
            with pytest.raises(ValueError, match="task 2") as info:
                engine.map(_boom_on_two, [1, 2, 3], keys=["a", "b", "c"])
        failure = info.value.task_failure
        assert isinstance(failure, TaskFailure)
        assert failure.task_index == 1
        assert failure.task_key == "b"
        assert failure.attempts == 1
        assert failure.site == "t.task"

    def test_pool_failure_preserves_worker_traceback(self, monkeypatch):
        # force the real pool (the serial-fallback heuristic would keep
        # these trivial tasks in-process)
        monkeypatch.setattr(engine_mod, "MIN_PARALLEL_SECONDS", 0.0)
        with ParallelEngine(2, name="t") as engine:
            with pytest.raises(ValueError) as info:
                engine.map(_boom_on_two, [1, 2, 3])
        assert "_boom_on_two" in info.value.task_failure.traceback_text

    def test_non_retryable_error_is_not_retried(self, workers):
        with ParallelEngine(workers, name="t",
                            retry=RetryPolicy.fast(max_attempts=4)) as engine:
            with pytest.raises(ValueError) as info:
                engine.map(_boom_on_two, [1, 2, 3])
        assert info.value.task_failure.attempts == 1


class TestReturnFailures:
    def test_failed_slot_holds_task_failure(self, workers):
        with ParallelEngine(workers, name="t") as engine:
            results = engine.map(_boom_on_two, [1, 2, 3],
                                 return_failures=True)
        assert results[0] == 1 and results[2] == 3
        assert isinstance(results[1], TaskFailure)
        assert results[1].task_index == 1

    def test_exhausted_transient_failure_is_returned(self, workers):
        injector = FaultInjector(
            FaultPlan.single("task_error", rate=1.0, max_failures=99)
        )
        with ParallelEngine(workers, name="t",
                            retry=RetryPolicy.fast(max_attempts=2),
                            faults=injector) as engine:
            results = engine.map(_double, [5, 6], return_failures=True)
        for result in results:
            assert isinstance(result, TaskFailure)
            assert result.attempts == 2


class TestCallbacks:
    def test_on_result_sees_every_success_once(self, workers):
        seen = {}
        with ParallelEngine(workers, name="t",
                            retry=RetryPolicy.fast()) as engine:
            injector = FaultInjector(
                FaultPlan.single("task_error", rate=0.4, max_failures=1, seed=3)
            )
            engine.faults = injector
            engine.map(_double, list(range(8)),
                       on_result=lambda i, v: seen.setdefault(i, v))
        assert seen == {i: i * 2 for i in range(8)}

    def test_keys_length_mismatch_rejected(self):
        with ParallelEngine(1, name="t") as engine:
            with pytest.raises(ValueError, match="keys"):
                engine.map(_double, [1, 2], keys=["only-one"])
