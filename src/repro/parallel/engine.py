"""Process-pool fan-out for embarrassingly parallel work units.

The repository's fan-out loop — a characterization campaign's SRB
experiments — is a list of independent tasks.
:class:`ParallelEngine` runs such a list in this process (the
``workers=1`` case) or over a :class:`~concurrent.futures.ProcessPoolExecutor`.
Each :meth:`~ParallelEngine.map` call opens a nested
:func:`repro.obs.trace.span` named ``parallel.map[{engine.name}]``, so
the fan-out appears as a child wherever it runs — under a campaign stage
or a session root — carrying the map's cost:

* ``parallel.map.workers`` / ``parallel.map.tasks`` — worker count and
  item count;
* ``parallel.map.exec_seconds`` — summed in-task wall time, i.e. what a
  serial run of the same attempts would have cost;
* ``parallel.map.queue_seconds`` — summed submit-to-start wait of the
  pooled attempts;
* ``parallel.map.wall_seconds`` — actual wall time of the map;
* ``parallel.map.mode`` — where it ran (see below).

Every attempt also increments the process-wide
:class:`~repro.obs.registry.MetricsRegistry` counter ``parallel.tasks``
and feeds the histograms ``parallel.task.exec_seconds`` and, when
pooled, ``parallel.task.queue_seconds``.  Metric deltas recorded *inside*
pool workers (``rb.*`` counters) are shipped back per task and merged
into the parent-process registry — registry totals are worker-count
invariant.

Worker count resolution order: explicit ``workers=`` keyword, then the
``REPRO_WORKERS`` environment variable, then serial.  Inside a pool worker
the engine always resolves to serial so nested fan-outs never
oversubscribe.

Minimum-work serial fallback
----------------------------

A pool pays only when a map's work dwarfs the fork/pickle/IPC tax.  The
Poughkeepsie campaign's pair stage clears it: kept in-process, the
``paper_loop`` benchmark ran ~8% slower per iteration on 2 CPUs.  The
fleet's per-device campaigns, a handful of small experiments each, do
not.  A multi-worker engine therefore **probes**: its first round runs
task 0 in this process (retries included), estimates the map's serial
cost as ``probe_seconds * len(items)``, and sends the remaining tasks to
the pool only when that estimate reaches :data:`MIN_PARALLEL_SECONDS`.
The decision is recorded as the ``parallel.mode`` gauge and the per-map
``parallel.map.mode`` span counter — 0 serial (workers resolved to 1, or
one item), 1 serial fallback (pool skipped as not worth it, or the probe
itself failed), 2 pool.  Fault injection always forces the real pool so
worker-death tests stay honest.

Task functions must be module-level (picklable) and are called as
``fn(context, item)``; the ``context`` object is shipped to each worker
once via the pool initializer rather than once per task.

Resilience
----------

Every map runs as rounds: a round tries each pending task once, in this
process or through the pool, and one harvester does the bookkeeping for
both.  An engine built with a :class:`~repro.resilience.retry.RetryPolicy`
survives transient task failures and worker deaths: failed tasks are
retried in the next round (after the round's longest deterministic
backoff) up to ``max_attempts`` times, a broken pool is torn down and
recreated, and only the tasks that actually failed re-run — completed
results are never recomputed, and the final result list is placed by
item index, so the merge order (and hence the output) is
bitwise-identical to a fault-free run.  Task exceptions are captured
*structurally* (exception object plus formatted traceback plus task
identity) and surface as :class:`~repro.resilience.errors.TaskFailure`
records rather than a bare re-raise that forgets which task died.  An
optional :class:`~repro.resilience.faults.FaultInjector`
deterministically injects failures for testing; directives are computed
in the parent and executed at the task site.  Each attempt's directive is
recorded once, in the parent, when the attempt runs or ships: it counts
even when the worker dies, and a task that a broken pool loses replays
the same attempt without counting it again.
"""

from __future__ import annotations

import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

import os

from repro.obs.events import log_event
from repro.obs.registry import DeltaWindow, get_registry
from repro.obs.trace import span as obs_span
from repro.resilience.errors import RemoteTaskError, TaskFailure, WorkerCrashError
from repro.resilience.faults import FaultDirective, FaultInjector, execute_directive
from repro.resilience.retry import RetryPolicy

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Estimated serial cost (seconds) below which a multi-worker map stays
#: in this process (see the module docstring).
MIN_PARALLEL_SECONDS = 0.2

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


def _run_task(fn: Callable[[Any, Any], Any], context: Any, index: int,
              item: Any, directive: Optional[FaultDirective] = None,
              window: Optional[DeltaWindow] = None):
    """Execute one task attempt, in this process or in a pool worker.

    Returns ``(index, payload, exec_seconds, start_ts, metrics_delta)``:
    ``payload`` is ``("ok", value)`` on success or
    ``("error", exception, traceback_text)`` when the task raised —
    captured structurally so the parent keeps the original exception,
    the traceback, and the task identity instead of a bare re-raise.
    ``start_ts`` is the wall clock at task start (the parent subtracts a
    pooled task's submit timestamp to estimate queue time).

    ``window`` is given only in a pool worker (see :func:`_pool_task`);
    ``metrics_delta`` is then the task's contribution to the worker-local
    registry, else ``None``.  There an injected ``worker_death``
    directive hard-kills the process (``os._exit``), so the parent sees a
    genuine ``BrokenProcessPool``, and the exception must survive the
    pickle back to the parent.
    """
    pooled = window is not None
    start_ts = time.time()
    started = time.perf_counter()
    try:
        if directive is not None:
            execute_directive(directive, process_exit=pooled)
        payload: Tuple[Any, ...] = ("ok", fn(context, item))
    except Exception as error:
        payload = ("error", _shippable_error(error) if pooled else error,
                   traceback.format_exc())
    seconds = time.perf_counter() - started
    return index, payload, seconds, start_ts, (
        window.delta() if pooled else None
    )


def _pool_task(fn: Callable[[Any, Any], Any], index: int, item: Any,
               directive: Optional[FaultDirective]):
    """:func:`_run_task` in a pool worker, shipping back its metrics."""
    # A DeltaWindow, not a snapshot pair: the shipped histogram deltas
    # then carry the window's exact min/max, so the parent's merge is
    # lossless (see MetricsRegistry.diff).
    window = get_registry().delta_window()
    try:
        return _run_task(fn, _WORKER_CONTEXT, index, item, directive, window)
    finally:
        window.close()


class ParallelEngine:
    """Maps a task function over independent items, serially or in a pool.

    ``retry`` (a :class:`~repro.resilience.retry.RetryPolicy`) makes the
    engine retry transiently failed tasks and recreate broken pools;
    ``faults`` (a :class:`~repro.resilience.faults.FaultInjector`)
    deterministically injects failures at the site
    ``"{name}.task"``.  Without a retry policy the first failure is
    terminal.
    """

    def __init__(self, workers: Optional[int] = None, name: str = "parallel",
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[FaultInjector] = None):
        self.workers = resolve_workers(workers)
        self.name = name
        self.retry = retry
        self.faults = faults
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

    def _directive(self, key: Any, attempt: int) -> Optional[FaultDirective]:
        """The fault planned for one attempt (recorded by :meth:`map` once
        the attempt runs or ships)."""
        if self.faults is None:
            return None
        return self.faults.directive(self._site, key, attempt)

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
        :class:`TaskFailure` (index, key, attempts, task traceback)."""
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

        Failure semantics: without a retry policy, a task exception is
        terminal.  With a policy, retryable failures are re-run with
        deterministic backoff and only tasks that exhaust their attempts
        become terminal.  Once the round that hit it has been harvested
        (so ``on_result`` saw every completed task), the first terminal
        failure propagates its original exception, annotated with a
        ``task_failure`` attribute carrying index, key, and the task-side
        traceback — unless ``return_failures=True``, in which case the
        result list holds a :class:`~repro.resilience.errors.TaskFailure`
        in the failed task's slot and the caller degrades gracefully.
        """
        work: Sequence[Any] = list(items)
        if keys is None:
            keys = range(len(work))
        else:
            keys = list(keys)
            if len(keys) != len(work):
                raise ValueError(
                    f"keys has {len(keys)} entries for {len(work)} items"
                )
        registry = get_registry()
        results: List[Any] = [None] * len(work)
        attempts = [0] * len(work)
        failures: Dict[int, TaskFailure] = {}
        pending = set(range(len(work)))
        max_attempts = self.retry.max_attempts if self.retry is not None else 1
        if self.workers == 1 or len(work) <= 1:
            mode: Optional[str] = "serial"
        elif self.faults is not None or MIN_PARALLEL_SECONDS <= 0.0:
            # Injected worker deaths need real workers to kill.
            mode = "pool"
        else:
            mode = None  # decided once the probe round has run task 0
        pool_breaks = 0
        # (index, attempt) pairs whose directive is recorded: an attempt
        # replayed after a pool break is the same injection, counted once.
        recorded: Set[Tuple[int, int]] = set()

        def record_directive(index: int,
                             directive: Optional[FaultDirective]) -> None:
            pair = (index, attempts[index])
            if directive is not None and pair not in recorded:
                recorded.add(pair)
                self.faults.record(directive)

        with obs_span(f"parallel.map[{self.name}]") as record:
            record.counters["parallel.map.workers"] = float(self.workers)
            record.counters["parallel.map.tasks"] = float(len(work))
            started = time.perf_counter()
            try:
                while pending:
                    pooled = mode == "pool"
                    indexes = [0] if mode is None else sorted(pending)
                    directives = {i: self._directive(keys[i], attempts[i])
                                  for i in indexes}
                    broken: Optional[BrokenProcessPool] = None
                    if pooled:
                        pool = self._ensure_pool(context)
                        submitted: Dict[int, float] = {}
                        calls = []
                        for i in indexes:
                            submit_ts = time.time()
                            try:
                                future = pool.submit(
                                    _pool_task, fn, i, work[i], directives[i],
                                )
                            except BrokenProcessPool as error:
                                # A worker died while the round was being
                                # submitted; the tasks the pool never
                                # accepted wait for the next round.
                                broken = error
                                break
                            submitted[i] = submit_ts
                            # Recorded in the parent once shipped, so it
                            # counts even when the worker dies.
                            record_directive(i, directives[i])
                            calls.append((i, future.result))
                    else:
                        calls = [(i, partial(_run_task, fn, context, i,
                                             work[i], directives[i]))
                                 for i in indexes]
                    round_delay = 0.0
                    for i, call in calls:
                        if not pooled:
                            record_directive(i, directives[i])
                        try:
                            index, payload, seconds, start_ts, delta = call()
                        except BrokenProcessPool as error:
                            broken = error
                            continue
                        record.add("parallel.map.exec_seconds", seconds)
                        registry.observe("parallel.task.exec_seconds", seconds)
                        registry.inc("parallel.tasks")
                        if pooled:
                            queued = max(0.0, start_ts - submitted[index])
                            record.add("parallel.map.queue_seconds", queued)
                            registry.observe("parallel.task.queue_seconds",
                                             queued)
                            registry.merge(delta)
                        if payload[0] == "ok":
                            results[index] = payload[1]
                            pending.discard(index)
                            if on_result is not None:
                                on_result(index, payload[1])
                            continue
                        error, tb_text = payload[1], payload[2]
                        key = keys[index]
                        attempts[index] += 1
                        tried = attempts[index]
                        if (self.retry is not None and tried < max_attempts
                                and self.retry.is_retryable(error)):
                            self._note_retry(index, key, tried, error)
                            round_delay = max(round_delay,
                                              self.retry.delay(tried, key))
                            continue
                        failures[index] = self._terminal_failure(
                            index, key, tried, error, tb_text,
                        )
                        pending.discard(index)
                    if failures and not return_failures:
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
                        # directive was the worker death; collateral tasks
                        # that merely shared the doomed pool replay at the
                        # same attempt number, keeping fault selection (and
                        # therefore the final report) worker-count invariant.
                        death = [i for i in sorted(pending)
                                 if i in submitted
                                 and directives[i] is not None
                                 and directives[i].kind == "worker_death"]
                        for i in death:
                            attempts[i] += 1
                            cause = WorkerCrashError(
                                f"worker died running task {i} "
                                f"(key={keys[i]!r})"
                            )
                            if attempts[i] < max_attempts:
                                self._note_retry(i, keys[i], attempts[i],
                                                 cause)
                                continue
                            failures[i] = self._terminal_failure(
                                i, keys[i], attempts[i], cause, "",
                            )
                            pending.discard(i)
                            if not return_failures:
                                self._raise_with_identity(failures[i])
                        if not death and pool_breaks >= max_attempts:
                            # A pool that keeps dying without any injected
                            # death is a genuine environment failure; give
                            # up once the retry budget is spent.
                            raise broken
                    if mode is None and 0 not in pending:
                        probe_seconds = time.perf_counter() - started
                        estimate = probe_seconds * len(work)
                        mode = "pool"
                        if estimate < MIN_PARALLEL_SECONDS:
                            mode = "serial-fallback"
                            log_event(
                                "parallel.serial_fallback", site=self._site,
                                tasks=len(work), probe_seconds=probe_seconds,
                                estimate_seconds=estimate,
                                threshold_seconds=MIN_PARALLEL_SECONDS,
                            )
                    if pending and round_delay > 0.0:
                        time.sleep(round_delay)
            except BaseException:
                # Cleanup only: the pool cannot outlive a failed map.  The
                # exception re-raises unmodified (task failures were
                # already annotated with their TaskFailure).
                self.close()
                raise
            finally:
                # A probe that failed ran in-process, so it reads as the
                # fallback.
                code = float(MODE_CODES[mode or "serial-fallback"])
                record.counters["parallel.map.wall_seconds"] = (
                    time.perf_counter() - started
                )
                record.counters["parallel.map.mode"] = code
                registry.set("parallel.mode", code)
        for index, failure in failures.items():
            results[index] = failure
        return results
