"""Windowed decomposition: solve big models as a chain of small ones.

The monolithic model is exact but combinatorial: at device scale (65q/127q
heavy-hex) a supremacy layer yields hundreds of decisions and the B&B tree
is unreachable.  The key structural fact that makes decomposition cheap is
that :class:`~repro.core.scheduling.xtalk.XtalkScheduler` appends decisions
in ascending gate-index (time) order, so a *window* is simply a contiguous
range of the decision list:

* ``model.constraints_for(prefix)`` already includes every constraint
  activated by earlier windows' choices, so boundary serializations are
  carried forward automatically — stitching is just "fix the prefix";
* ``partial_cost(prefix)`` stays monotone and admissible within a window,
  so each window solve is exact *given* the frozen prefix.

Blockwise-exact search interpolates between the existing modes: window
size 1 is the greedy dive, one window covering everything is the exact
solver.  The solution is globally exact only in the single-window case;
otherwise ``exact=False`` with no interrupt means "every window solved to
optimality under its frozen prefix".

:func:`plan_windows` sizes windows by a decision-count cap and prefers
region-aware cuts: a cut point where adjacent decisions share no schedule
variables decouples the windows entirely, so within a small ``slack`` the
planner slides each cut left to such a boundary when one exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.obs.events import log_event
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.smt.backends import (
    ExactBnB,
    Solution,
    SolveRequest,
    SolverBackend,
    evaluate,
)
from repro.smt.model import Decision, ScheduleModel


def _decision_vars(decision: Decision) -> FrozenSet[int]:
    """Every schedule variable any option of ``decision`` touches."""
    touched = set()
    for option in decision.options:
        for con in option.constraints:
            touched.add(con.var_hi)
            if con.var_lo is not None:
                touched.add(con.var_lo)
    return frozenset(touched)


@dataclass(frozen=True)
class WindowPlan:
    """A partition of the decision list into contiguous windows."""

    #: Half-open ``(start, stop)`` decision-index ranges, in order.
    windows: Tuple[Tuple[int, int], ...]
    cap: int
    num_decisions: int

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def max_window(self) -> int:
        return max((stop - start for start, stop in self.windows), default=0)


def plan_windows(model: ScheduleModel, cap: int, *,
                 slack: Optional[int] = None) -> WindowPlan:
    """Partition ``model.decisions`` into windows of at most ``cap``.

    Cuts are slid left by up to ``slack`` positions (default
    ``max(1, cap // 4)``)
    to land on a variable-disjoint boundary — a point where the decisions
    on either side touch no common schedule variable — when one exists;
    such cuts decouple the windows so freezing the earlier one costs
    nothing.  Deterministic: same model and cap, same plan.
    """
    if cap < 1:
        raise ValueError("window cap must be >= 1")
    n = len(model.decisions)
    if slack is None:
        slack = max(1, cap // 4)
    variables = [_decision_vars(d) for d in model.decisions]
    windows: List[Tuple[int, int]] = []
    start = 0
    while start < n:
        stop = min(start + cap, n)
        if stop < n:
            # Prefer a disjoint boundary within [stop - slack, stop].
            for candidate in range(stop, max(start, stop - slack - 1), -1):
                if not (variables[candidate - 1] & variables[candidate]):
                    stop = candidate
                    break
        windows.append((start, stop))
        start = stop
    return WindowPlan(windows=tuple(windows), cap=cap, num_decisions=n)


class _WindowView:
    """A :class:`ScheduleModel`-shaped view of one window.

    Exposes ``model.decisions[start:stop]`` as the full decision list while
    delegating ``constraints_for`` with the frozen ``prefix`` prepended, so
    the exact search solves the window unmodified.
    """

    def __init__(self, model: ScheduleModel, prefix: Sequence[int],
                 start: int, stop: int):
        self._model = model
        self._prefix = list(prefix)
        self.decisions = model.decisions[start:stop]
        self.num_vars = model.num_vars
        self.objective = model.objective
        self.objective_offset = model.objective_offset
        self.base_constraints = model.constraints_for(self._prefix)

    def constraints_for(self, assignment: Sequence[int]):
        return self._model.constraints_for(self._prefix + list(assignment))


class _WindowCost:
    """``partial_cost`` with the frozen prefix prepended."""

    def __init__(self, partial_cost, prefix: Sequence[int]):
        self._cost = partial_cost
        self._prefix = tuple(prefix)

    def __call__(self, assignment: Tuple[int, ...]) -> float:
        return self._cost(self._prefix + tuple(assignment))


class WindowedSolver(SolverBackend):
    """Blockwise-exact solve over a :func:`plan_windows` partition.

    Each window is solved by :class:`~repro.smt.backends.ExactBnB` with
    every earlier window's assignment frozen as a prefix; the shared budget
    is armed once here so window solves can never extend it.  Emits an
    ``smt.windows`` span with ``smt.window.*`` counters and one
    ``smt.window.plan`` event.
    """

    def __init__(self, cap: Optional[int] = None):
        if cap is not None and cap < 1:
            raise ValueError("window cap must be >= 1")
        self.cap = cap

    def __repr__(self) -> str:
        return f"WindowedSolver(cap={self.cap})"

    def solve(self, request: SolveRequest) -> Solution:
        model = request.model
        budget = request.budget
        cap = self.cap if self.cap is not None else max(
            1, request.exact_decision_limit)
        plan = plan_windows(model, cap)
        armed = budget.arm()
        started = time.perf_counter()
        assignment: List[int] = []
        nodes = 0
        interrupt: Optional[str] = None
        try:
            with obs_span("smt.windows") as record:
                for start, stop in plan.windows:
                    view = _WindowView(model, assignment, start, stop)
                    sub = SolveRequest(
                        model=view,
                        partial_cost=_WindowCost(
                            request.partial_cost, assignment),
                        budget=budget,
                        exact_decision_limit=request.exact_decision_limit,
                        max_nodes=request.max_nodes,
                    )
                    result = ExactBnB().solve(sub)
                    assignment.extend(result.assignment)
                    nodes += result.nodes_explored
                    if result.interrupt is not None:
                        interrupt = result.interrupt
                record.counters.update({
                    "smt.window.count": float(len(plan)),
                    "smt.window.cap": float(cap),
                    "smt.window.max_decisions": float(plan.max_window),
                    "smt.window.nodes": float(nodes),
                    "smt.window.seconds": time.perf_counter() - started,
                })
            registry = get_registry()
            registry.inc("smt.windowed_solves")
            registry.inc("smt.windows_solved", len(plan))
            log_event(
                "smt.window.plan",
                windows=len(plan),
                cap=cap,
                decisions=plan.num_decisions,
                max_window=plan.max_window,
                interrupt=interrupt,
            )
        finally:
            if armed:
                budget.disarm()
        solution = evaluate(
            request, assignment,
            exact=len(plan) <= 1 and interrupt is None,
            interrupt=interrupt,
            nodes=nodes,
        )
        if solution is None:  # pragma: no cover - windows are feasible
            raise RuntimeError("windowed solve produced infeasible assignment")
        return solution
