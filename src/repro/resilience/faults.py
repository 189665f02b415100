"""Deterministic fault injection keyed off stable canonical-JSON hashes.

A :class:`FaultPlan` describes *which* failures to inject — worker-task
exceptions, worker death, backend job rejections/timeouts — and a
:class:`FaultInjector` carries one plan through a run, counting and
logging every injection.  Selection is driven by the same
canonical-JSON/SHA-256 derivation as :mod:`repro.parallel.seeding`: a
fault fires for ``(site, key)`` iff

    ``stable_entropy("resilience.fault", plan.seed, rule.kind, site, key)``

lands below the rule's ``rate``, and the current ``attempt`` is still
below the rule's ``max_failures``.  Because the draw depends only on the
plan seed and the task's stable key — never on worker count, submission
order, or wall clock — a fault scenario replays identically on every
machine and at every ``REPRO_WORKERS`` setting, which is what makes the
campaign-level invariant testable ("a 20 %-transient-failure campaign
converges to the fault-free report after retries").

Fault kinds:

* ``"task_error"`` — raise :class:`~repro.resilience.errors.TransientTaskError`
  inside the task (retryable);
* ``"worker_death"`` — in a pool worker, hard-kill the process
  (``os._exit``) so the parent sees a real ``BrokenProcessPool``; in
  serial mode, raise :class:`~repro.resilience.errors.WorkerCrashError`;
* ``"job_rejection"`` / ``"job_timeout"`` — raise
  :class:`~repro.resilience.errors.BackendJobError` (a queued hardware
  job dying before producing data);
* ``"fatal"`` — raise :class:`~repro.resilience.errors.FatalTaskError`
  (never retried; models bugs and kill-mid-run scenarios).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, List, Optional, Tuple

from repro.obs.events import log_event
from repro.obs.registry import get_registry
from repro.parallel.seeding import stable_entropy

from repro.resilience.errors import (
    BackendJobError,
    FatalTaskError,
    TransientTaskError,
    WorkerCrashError,
)

#: Every fault kind a rule may name.
FAULT_KINDS = (
    "task_error", "worker_death", "job_rejection", "job_timeout", "fatal",
)

#: Resolution of the selection draw (uniform fractions in [0, 1)).
_DRAW_DENOMINATOR = 10 ** 12


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *which kind*, *how often*, *for how long*.

    ``rate`` is the fraction of (site, key) pairs affected; ``max_failures``
    is how many leading attempts of an affected task fail before it
    succeeds (so retry convergence is testable — use a large value for
    permanent failures).  ``site`` is an ``fnmatch`` pattern over fault
    site names (``"characterize[*].task"``, ``"backend.job"``; ``"*"``
    matches everywhere).
    """

    kind: str
    rate: float = 1.0
    max_failures: int = 1
    site: str = "*"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")


@dataclass(frozen=True)
class FaultDirective:
    """A concrete injection decision for one task attempt.

    Computed in the parent process (so injections are counted reliably
    even when the worker dies) and shipped to the worker, which executes
    it via :func:`execute_directive`.
    """

    kind: str
    site: str
    key: str       # repr of the task key, for events and debugging
    attempt: int


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure scenario: a seed plus a list of rules.

    Rules are consulted in order; the first whose site pattern matches,
    whose selection draw admits the key, and whose ``max_failures`` has
    not been exhausted for this attempt wins.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    @classmethod
    def single(cls, kind: str, rate: float = 1.0, max_failures: int = 1,
               site: str = "*", seed: int = 0) -> "FaultPlan":
        """Convenience: a plan with one rule."""
        return cls(seed=seed, rules=(FaultRule(kind, rate, max_failures, site),))

    def directive(self, site: str, key: Any,
                  attempt: int = 0) -> Optional[FaultDirective]:
        """The fault (if any) this plan schedules for ``(site, key)`` at
        the given attempt number.  Deterministic and stateless."""
        for rule in self.rules:
            if not fnmatchcase(site, rule.site):
                continue
            if attempt >= rule.max_failures:
                continue
            draw = stable_entropy(
                "resilience.fault", self.seed, rule.kind, site, key
            ) % _DRAW_DENOMINATOR
            if draw / _DRAW_DENOMINATOR < rule.rate:
                return FaultDirective(
                    kind=rule.kind, site=site, key=repr(key), attempt=attempt,
                )
        return None


def raise_fault(directive: FaultDirective) -> None:
    """Raise the exception a directive maps to (never ``os._exit``)."""
    message = (
        f"injected {directive.kind} at {directive.site!r} "
        f"(key={directive.key}, attempt={directive.attempt})"
    )
    if directive.kind == "task_error":
        raise TransientTaskError(message)
    if directive.kind == "worker_death":
        raise WorkerCrashError(message)
    if directive.kind == "job_rejection":
        raise BackendJobError(message, kind="rejection")
    if directive.kind == "job_timeout":
        raise BackendJobError(message, kind="timeout")
    raise FatalTaskError(message)


def execute_directive(directive: FaultDirective,
                      process_exit: bool = False) -> None:
    """Carry out a directive at its fault site.

    With ``process_exit=True`` (pool workers only) a ``worker_death``
    directive hard-kills the process with ``os._exit`` — bypassing all
    exception handling, exactly like an OOM kill — so the parent
    experiences a genuine ``BrokenProcessPool``.  Every other kind (and
    ``worker_death`` in serial mode) raises its mapped exception.
    """
    if directive.kind == "worker_death" and process_exit:
        os._exit(13)
    raise_fault(directive)


class FaultInjector:
    """One plan threaded through a run, with counting and event logging.

    Two usage styles:

    * the parallel engine asks :meth:`directive` with an explicit,
      engine-tracked attempt number, ships the directive to the worker,
      and the worker executes it (attempt numbers survive process
      boundaries this way);
    * the in-process fault site of
      :class:`~repro.device.backend.NoisyBackend` calls :meth:`check`,
      which tracks attempts per ``(site, key)`` in the injector itself
      and raises directly.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Every directive shipped or raised, in order.
        self.injected: List[FaultDirective] = []
        self._attempts: dict = {}

    @property
    def count(self) -> int:
        return len(self.injected)

    def directive(self, site: str, key: Any,
                  attempt: int = 0) -> Optional[FaultDirective]:
        """Plan lookup with *caller-tracked* attempts (no recording —
        call :meth:`record` when the directive is actually shipped)."""
        return self.plan.directive(site, key, attempt)

    def record(self, directive: FaultDirective) -> None:
        """Count one shipped/raised directive (metrics + event)."""
        self.injected.append(directive)
        get_registry().inc("resilience.faults_injected")
        log_event(
            "resilience.fault", kind=directive.kind, site=directive.site,
            key=directive.key, attempt=directive.attempt,
        )

    def check(self, site: str, key: Any) -> None:
        """Raise the scheduled fault (if any) for an in-process site.

        Attempts are tracked per ``(site, key)`` inside the injector, so
        a retried call eventually clears ``max_failures`` and succeeds.
        """
        state_key = (site, repr(key))
        attempt = self._attempts.get(state_key, 0)
        self._attempts[state_key] = attempt + 1
        directive = self.plan.directive(site, key, attempt)
        if directive is not None:
            self.record(directive)
            raise_fault(directive)
