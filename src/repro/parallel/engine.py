"""Process-pool fan-out for embarrassingly parallel work units.

The repository's fan-out loop — a characterization campaign's SRB
experiments — is a list of independent tasks.
:class:`ParallelEngine` runs such a list either serially (the
``workers=1`` fallback) or over a :class:`~concurrent.futures.ProcessPoolExecutor`,
and reports cost through the same counter namespace the pipeline passes
use:

* ``parallel.workers`` — worker processes used for the fan-out;
* ``parallel.tasks`` — tasks executed;
* ``parallel.serial_seconds_estimate`` — summed in-task wall time, i.e.
  what a serial run of the same tasks would have cost;
* ``parallel.wall_seconds`` — actual wall time of the fan-out.

Each :meth:`map` call also opens a nested :func:`repro.obs.trace.span`
named ``parallel.map[{engine.name}]`` carrying per-map detail in the
``parallel.map.*`` namespace (task count, queue/exec seconds), so the
fan-out appears as a child wherever it runs — under a pipeline pass, a
campaign stage, or a session root.  Per-task queue and execution timings
additionally feed the process-wide
:class:`~repro.obs.registry.MetricsRegistry` histograms
``parallel.task.queue_seconds`` and ``parallel.task.exec_seconds``, and
metric deltas recorded *inside* pool workers (``rb.*`` counters) are
shipped back per task and merged into the parent-process registry —
registry totals are worker-count invariant.

Worker count resolution order: explicit ``workers=`` keyword, then the
``REPRO_WORKERS`` environment variable, then serial.  Inside a pool worker
the engine always resolves to serial so nested fan-outs never
oversubscribe.

Minimum-work serial fallback
----------------------------

Process pools only pay off when the work dwarfs the fork/pickle/IPC tax;
the perf baseline showed small fan-outs running *slower* at 4 workers
than serially.  A multi-worker engine therefore
**probes**: it runs the first task serially, estimates
the map's total serial cost as ``probe_seconds * len(items)``, and only
spins up the pool when that estimate clears ``min_parallel_seconds``
(default 0.2 s; overridable per engine, via the
``REPRO_MIN_PARALLEL_SECONDS`` environment variable, or disabled entirely
with 0).  The decision is recorded as the ``parallel.mode`` gauge and the
per-map ``parallel.map.mode`` span counter — 0 serial (workers resolved
to 1), 1 serial fallback (pool skipped as not worth it), 2 pool.  Fault
injection always forces the real pool so worker-death tests stay honest.

Task functions must be module-level (picklable) and are called as
``fn(context, item)``; the ``context`` object is shipped to each worker
once via the pool initializer rather than once per task.

Resilience
----------

An engine built with a :class:`~repro.resilience.retry.RetryPolicy`
survives transient task failures and worker deaths: failed tasks are
resubmitted (with deterministic backoff) up to ``max_attempts`` times,
a broken pool is torn down and recreated, and only the tasks that
actually failed re-run — completed results are never recomputed, and the
final result list is placed by item index, so the merge order (and hence
the output) is bitwise-identical to a fault-free run.  Worker-side
exceptions are captured *structurally* (exception object plus formatted
traceback plus task identity) and surface as
:class:`~repro.resilience.errors.TaskFailure` records rather than a bare
re-raise that forgets which task died.  An optional
:class:`~repro.resilience.faults.FaultInjector` deterministically injects
failures for testing; directives are computed in the parent (so they are
counted even when the worker dies) and executed at the task site.
"""

from __future__ import annotations

import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import os

from repro.obs.events import log_event
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.resilience.errors import RemoteTaskError, TaskFailure, WorkerCrashError
from repro.resilience.faults import FaultDirective, FaultInjector, execute_directive
from repro.resilience.retry import RetryPolicy

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable overriding the serial-fallback threshold.
MIN_PARALLEL_ENV = "REPRO_MIN_PARALLEL_SECONDS"

#: Default estimated-serial-cost threshold (seconds) below which a
#: multi-worker map falls back to serial execution.
DEFAULT_MIN_PARALLEL_SECONDS = 0.2

#: ``parallel.mode`` gauge / ``parallel.map.mode`` counter encoding.
MODE_CODES = {"serial": 0, "serial-fallback": 1, "pool": 2}

#: Worker-process state, installed by the pool initializer.
_WORKER_CONTEXT: Any = None
_IN_WORKER = False


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    Precedence: the ``workers`` keyword if given, else the
    ``REPRO_WORKERS`` environment variable, else 1 (serial).  Inside a pool
    worker this always returns 1 so nested parallelism stays serial.
    """
    if _IN_WORKER:
        return 1
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} is not an integer worker count"
            ) from None
    return max(1, int(workers))


def resolve_min_parallel_seconds(value: Optional[float] = None) -> float:
    """Resolve the serial-fallback threshold (seconds of estimated work).

    Precedence: the explicit ``value`` if given, else the
    ``REPRO_MIN_PARALLEL_SECONDS`` environment variable, else
    :data:`DEFAULT_MIN_PARALLEL_SECONDS`.  ``0`` disables the heuristic
    (every multi-worker map uses the pool unconditionally).
    """
    if value is None:
        env = os.environ.get(MIN_PARALLEL_ENV, "").strip()
        if not env:
            return DEFAULT_MIN_PARALLEL_SECONDS
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"{MIN_PARALLEL_ENV}={env!r} is not a number of seconds"
            ) from None
    return max(0.0, float(value))


def _init_worker(context: Any) -> None:
    global _WORKER_CONTEXT, _IN_WORKER
    _WORKER_CONTEXT = context
    _IN_WORKER = True


def _shippable_error(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round trip, else a
    :class:`RemoteTaskError` stand-in carrying its ``repr``."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RemoteTaskError(f"{type(error).__name__}: {error}")


def _run_task(fn: Callable[[Any, Any], Any], index: int, item: Any,
              directive: Optional[FaultDirective] = None):
    """Execute one task in a pool worker.

    Returns ``(index, payload, exec_seconds, start_ts, metrics_delta)``:
    ``payload`` is ``("ok", value)`` on success or
    ``("error", exception, traceback_text)`` when the task raised —
    captured structurally so the parent keeps the original exception,
    the worker-side traceback, and the task identity instead of a bare
    re-raise.  ``start_ts`` is the worker's wall clock at task start (the
    parent subtracts its submit timestamp to estimate queue time), and
    ``metrics_delta`` is the task's contribution to the worker-local
    :class:`~repro.obs.registry.MetricsRegistry`, shipped back for the
    parent to merge so process-wide metrics stay worker-count invariant.

    An injected ``worker_death`` directive hard-kills the process here
    (``os._exit``), so the parent sees a genuine ``BrokenProcessPool``.
    """
    registry = get_registry()
    # A DeltaWindow, not a snapshot pair: the shipped histogram deltas
    # then carry the window's exact min/max, so the parent's merge is
    # lossless (see MetricsRegistry.diff).
    window = registry.delta_window()
    try:
        start_ts = time.time()
        started = time.perf_counter()
        try:
            if directive is not None:
                execute_directive(directive, process_exit=_IN_WORKER)
            payload: Tuple[Any, ...] = (
                "ok", fn(_WORKER_CONTEXT, item)
            )
        except Exception as error:
            payload = ("error", _shippable_error(error),
                       traceback.format_exc())
        seconds = time.perf_counter() - started
        delta = window.delta()
    finally:
        window.close()
    return index, payload, seconds, start_ts, delta


class ParallelEngine:
    """Maps a task function over independent items, serially or in a pool.

    One engine accumulates ``parallel.*`` counters across every
    :meth:`map` call so a caller can snapshot them into a
    :class:`~repro.obs.trace.Span` (``span.counters.update(
    engine.counters)``).

    ``retry`` (a :class:`~repro.resilience.retry.RetryPolicy`) makes the
    engine resubmit transiently failed tasks and recreate broken pools;
    ``faults`` (a :class:`~repro.resilience.faults.FaultInjector`)
    deterministically injects failures at the site
    ``"{name}.task"``.  Without a retry policy the first failure is
    terminal, matching the historical behavior.
    """

    def __init__(self, workers: Optional[int] = None, name: str = "parallel",
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[FaultInjector] = None,
                 min_parallel_seconds: Optional[float] = None):
        self.workers = resolve_workers(workers)
        self.name = name
        self.retry = retry
        self.faults = faults
        self.min_parallel_seconds = resolve_min_parallel_seconds(
            min_parallel_seconds
        )
        self.counters: Dict[str, float] = {
            "parallel.workers": float(self.workers),
            "parallel.tasks": 0.0,
            "parallel.serial_seconds_estimate": 0.0,
            "parallel.wall_seconds": 0.0,
        }
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_context: Any = None

    # ------------------------------------------------------------------
    def _ensure_pool(self, context: Any) -> ProcessPoolExecutor:
        """The engine's pool, created lazily and reused across map calls.

        Workers receive ``context`` through the pool initializer, so a map
        with a different context object tears the pool down and forks a
        fresh one; repeated maps with one context (the campaign's two
        stages) pay the startup cost once.
        """
        if self._pool is not None and self._pool_context is not context:
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(context,),
            )
            self._pool_context = context
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; serial engines no-op)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_context = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    @property
    def _site(self) -> str:
        return f"{self.name}.task"

    def _max_attempts(self) -> int:
        return self.retry.max_attempts if self.retry is not None else 1

    def _note_retry(self, index: int, key: Any, attempt: int,
                    error: BaseException) -> None:
        get_registry().inc("resilience.retries")
        log_event(
            "resilience.retry", site=self._site, task_index=index,
            attempt=attempt, key=repr(key), error=repr(error),
        )

    def _terminal_failure(self, index: int, key: Any, attempts: int,
                          error: Optional[BaseException],
                          tb_text: str) -> TaskFailure:
        failure = TaskFailure(self._site, index, key, attempts, error, tb_text)
        get_registry().inc("resilience.task_failures")
        log_event("resilience.task_failure", **failure.to_dict())
        return failure

    @staticmethod
    def _raise_with_identity(failure: TaskFailure) -> None:
        """Propagate the task's original exception, annotated with its
        :class:`TaskFailure` (index, key, attempts, worker traceback)."""
        error = failure.cause if failure.cause is not None else failure
        try:
            error.task_failure = failure
        except Exception:  # pragma: no cover - exotic exception types
            pass
        raise error

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any, Any], Any], items: Iterable[Any],
            context: Any = None, *, keys: Optional[Sequence[Any]] = None,
            on_result: Optional[Callable[[int, Any], None]] = None,
            return_failures: bool = False) -> List[Any]:
        """Run ``fn(context, item)`` for every item, preserving item order.

        ``fn`` must be a module-level function and, when more than one
        worker is in play, ``context``, every item, and every result must
        be picklable.

        ``keys`` gives each task a stable identity (used for fault
        selection, retry jitter, and failure records); it defaults to the
        item index.  ``on_result(index, value)`` is invoked as each task
        *first* completes — in completion order, before the map returns —
        which is how the campaign streams results to a checkpoint.

        Failure semantics: without a retry policy, the first task
        exception propagates (annotated with a ``task_failure`` attribute
        carrying index, key, and the worker-side traceback).  With a
        policy, retryable failures are re-run with deterministic backoff
        and only tasks that exhaust their attempts become terminal.
        Terminal failures propagate the original exception unless
        ``return_failures=True``, in which case the result list holds a
        :class:`~repro.resilience.errors.TaskFailure` in the failed
        task's slot and the caller degrades gracefully.
        """
        work: Sequence[Any] = list(items)
        if keys is not None:
            keys = list(keys)
            if len(keys) != len(work):
                raise ValueError(
                    f"keys has {len(keys)} entries for {len(work)} items"
                )
        registry = get_registry()
        results: List[Any] = [None] * len(work)
        with obs_span(f"parallel.map[{self.name}]") as record:
            record.counters["parallel.map.workers"] = float(self.workers)
            record.counters["parallel.map.tasks"] = float(len(work))
            started = time.perf_counter()
            if self.workers == 1 or len(work) <= 1:
                mode = "serial"
                self._map_serial(
                    fn, work, context, keys, on_result, return_failures,
                    record, registry, range(len(work)), results,
                )
            else:
                mode, remaining = self._probe(
                    fn, work, context, keys, on_result, return_failures,
                    record, registry, results,
                )
                if mode == "serial-fallback":
                    self._map_serial(
                        fn, work, context, keys, on_result, return_failures,
                        record, registry, remaining, results,
                    )
                else:
                    try:
                        self._map_pool(
                            fn, work, context, keys, on_result,
                            return_failures, record, registry, remaining,
                            results,
                        )
                    except BaseException:
                        # Cleanup only: the pool cannot outlive a failed
                        # map.  The exception re-raises unmodified (task
                        # failures were already annotated with their
                        # TaskFailure).
                        self.close()
                        raise
            wall = time.perf_counter() - started
            self.counters["parallel.tasks"] += float(len(work))
            self.counters["parallel.wall_seconds"] += wall
            record.counters["parallel.map.wall_seconds"] = wall
            record.counters["parallel.map.mode"] = float(MODE_CODES[mode])
            registry.set("parallel.mode", float(MODE_CODES[mode]))
        return results

    def _probe(self, fn, work, context, keys, on_result, return_failures,
               record, registry, results) -> Tuple[str, Sequence[int]]:
        """Decide pool vs serial fallback for a multi-worker map.

        Runs task 0 serially, extrapolates the map's serial cost from its
        wall time, and skips the pool when the estimate stays under
        :attr:`min_parallel_seconds` (see the module docstring).  Returns
        ``(mode, remaining_indexes)``; with the heuristic disabled — or a
        :class:`FaultInjector` present, which needs real workers to kill —
        nothing is probed and every index goes to the pool.
        """
        if self.min_parallel_seconds <= 0.0 or self.faults is not None:
            return "pool", range(len(work))
        t0 = time.perf_counter()
        self._map_serial(
            fn, work, context, keys, on_result, return_failures,
            record, registry, range(1), results,
        )
        probe_seconds = time.perf_counter() - t0
        estimate = probe_seconds * len(work)
        remaining = range(1, len(work))
        if estimate < self.min_parallel_seconds:
            log_event(
                "parallel.serial_fallback", site=self._site,
                tasks=len(work), probe_seconds=probe_seconds,
                estimate_seconds=estimate,
                threshold_seconds=self.min_parallel_seconds,
            )
            return "serial-fallback", remaining
        return "pool", remaining

    # ------------------------------------------------------------------
    def _task_key(self, keys: Optional[Sequence[Any]], index: int) -> Any:
        return keys[index] if keys is not None else index

    def _map_serial(self, fn, work, context, keys, on_result,
                    return_failures, record, registry,
                    indexes: Sequence[int], results: List[Any]) -> None:
        """Run the tasks at ``indexes`` in-process, filling ``results``.

        ``indexes`` are global item indices (the probe hands the pool the
        tail of the list), so keys, ``on_result`` callbacks, and failure
        records keep their full-list identity.
        """
        max_attempts = self._max_attempts()
        for i in indexes:
            item = work[i]
            key = self._task_key(keys, i)
            attempts = 0
            while True:
                directive = None
                if self.faults is not None:
                    directive = self.faults.directive(self._site, key, attempts)
                t0 = time.perf_counter()
                try:
                    if directive is not None:
                        self.faults.record(directive)
                        execute_directive(directive, process_exit=False)
                    value = fn(context, item)
                except Exception as error:
                    seconds = time.perf_counter() - t0
                    self.counters["parallel.serial_seconds_estimate"] += seconds
                    record.add("parallel.map.exec_seconds", seconds)
                    registry.observe("parallel.task.exec_seconds", seconds)
                    registry.inc("parallel.tasks")
                    attempts += 1
                    if (self.retry is not None and attempts < max_attempts
                            and self.retry.is_retryable(error)):
                        self._note_retry(i, key, attempts, error)
                        self.retry.sleep(attempts, key)
                        continue
                    failure = self._terminal_failure(
                        i, key, attempts, error, traceback.format_exc(),
                    )
                    if return_failures:
                        results[i] = failure
                        break
                    error.task_failure = failure
                    raise
                else:
                    seconds = time.perf_counter() - t0
                    self.counters["parallel.serial_seconds_estimate"] += seconds
                    record.add("parallel.map.exec_seconds", seconds)
                    registry.observe("parallel.task.exec_seconds", seconds)
                    registry.inc("parallel.tasks")
                    results[i] = value
                    if on_result is not None:
                        on_result(i, value)
                    break

    def _map_pool(self, fn, work, context, keys, on_result,
                  return_failures, record, registry,
                  indexes: Sequence[int], results: List[Any]) -> None:
        """Run the tasks at ``indexes`` over the pool, filling ``results``.

        As with :meth:`_map_serial`, ``indexes`` are global item indices.
        """
        failures: Dict[int, TaskFailure] = {}
        attempts: Dict[int, int] = {i: 0 for i in indexes}
        pending = set(indexes)
        max_attempts = self._max_attempts()
        pool_breaks = 0
        while pending:
            pool = self._ensure_pool(context)
            round_indexes = sorted(pending)
            round_directives: Dict[int, Optional[FaultDirective]] = {}
            futures = []
            submitted = []
            for i in round_indexes:
                directive = None
                if self.faults is not None:
                    directive = self.faults.directive(
                        self._site, self._task_key(keys, i), attempts[i],
                    )
                    if directive is not None:
                        self.faults.record(directive)
                round_directives[i] = directive
                submitted.append(time.time())
                futures.append(pool.submit(_run_task, fn, i, work[i], directive))
            broken: Optional[BaseException] = None
            round_delay = 0.0
            for future, submit_ts in zip(futures, submitted):
                try:
                    index, payload, seconds, start_ts, delta = future.result()
                except BrokenProcessPool as error:
                    broken = error
                    continue
                queue_seconds = max(0.0, start_ts - submit_ts)
                self.counters["parallel.serial_seconds_estimate"] += seconds
                record.add("parallel.map.exec_seconds", seconds)
                record.add("parallel.map.queue_seconds", queue_seconds)
                registry.observe("parallel.task.exec_seconds", seconds)
                registry.observe("parallel.task.queue_seconds", queue_seconds)
                registry.inc("parallel.tasks")
                registry.merge(delta)
                if payload[0] == "ok":
                    results[index] = payload[1]
                    pending.discard(index)
                    if on_result is not None:
                        on_result(index, payload[1])
                    continue
                error, tb_text = payload[1], payload[2]
                key = self._task_key(keys, index)
                attempts[index] += 1
                if (self.retry is not None and attempts[index] < max_attempts
                        and self.retry.is_retryable(error)):
                    self._note_retry(index, key, attempts[index], error)
                    round_delay = max(
                        round_delay, self.retry.delay(attempts[index], key),
                    )
                    continue
                failure = self._terminal_failure(
                    index, key, attempts[index], error, tb_text,
                )
                failures[index] = failure
                pending.discard(index)
            if failures and not return_failures:
                # The whole round was still harvested (so on_result saw
                # every completed task) before the first terminal failure
                # aborts the map.
                self._raise_with_identity(failures[min(failures)])
            if broken is not None:
                pool_breaks += 1
                self.close()
                registry.inc("resilience.pool.recreations")
                log_event(
                    "resilience.pool_broken", site=self._site,
                    breaks=pool_breaks, pending=len(pending),
                )
                if self.retry is None:
                    raise broken
                # Attempts advance only for the tasks whose shipped
                # directive was the worker death; collateral tasks that
                # merely shared the doomed pool replay at the same
                # attempt number, keeping fault selection (and therefore
                # the final report) worker-count invariant.
                death = [i for i in sorted(pending)
                         if round_directives.get(i) is not None
                         and round_directives[i].kind == "worker_death"]
                for i in death:
                    key = self._task_key(keys, i)
                    attempts[i] += 1
                    cause = WorkerCrashError(
                        f"worker died running task {i} (key={key!r})"
                    )
                    if attempts[i] < max_attempts:
                        self._note_retry(i, key, attempts[i], cause)
                        continue
                    failure = self._terminal_failure(
                        i, key, attempts[i], cause, "",
                    )
                    failures[i] = failure
                    pending.discard(i)
                    if not return_failures:
                        self._raise_with_identity(failure)
                if not death and pool_breaks >= max_attempts:
                    # A pool that keeps dying without any injected death
                    # is a genuine environment failure; give up once the
                    # retry budget is spent.
                    raise broken
            if pending and round_delay > 0.0:
                time.sleep(round_delay)
        for index, failure in failures.items():
            results[index] = failure

    # ------------------------------------------------------------------
    def counters_since(self, baseline: Dict[str, float]) -> Dict[str, float]:
        """Counter deltas against a ``dict(engine.counters)`` snapshot.

        ``parallel.workers`` is a level, not an accumulator, so it is
        reported as-is rather than differenced.
        """
        out = {}
        for key, value in self.counters.items():
            if key == "parallel.workers":
                out[key] = value
            else:
                out[key] = value - baseline.get(key, 0.0)
        return out
