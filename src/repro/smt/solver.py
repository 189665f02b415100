"""Façade over the interchangeable solver backends.

The solver minimizes::

    partial_cost(assignment)  +  min_x  sum_v objective[v] * x_v
                                 s.t.   difference constraints(assignment)

where ``partial_cost`` is a caller-supplied callback that must be
*monotone*: extending an assignment may never decrease it.  For the
crosstalk scheduler this is the ``ω Σ log g.ε`` gate-error part (deciding
an overlap can only raise conditional error rates), and the LP part is the
``(1-ω) Σ q.t / q.T`` decoherence part (adding constraints can only raise
the minimal lifetimes).  Both monotonicities make the node lower bound
``partial_cost(prefix) + LP(prefix constraints)`` admissible, so the
depth-first search is exact.

The search strategies themselves live in :mod:`repro.smt.backends`
(:class:`~repro.smt.backends.ExactBnB`,
:class:`~repro.smt.backends.GreedyDive`) behind the
:class:`~repro.smt.backends.SolveRequest` contract; this class keeps the
``solve()`` auto-switch (exact below ``exact_decision_limit`` decisions,
greedy above) and the ``smt.solve`` observability envelope, and hands every
backend the one :class:`~repro.smt.budget.Budget` that bounds the solve.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.events import log_event
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.smt.backends import (
    ExactBnB,
    GreedyDive,
    PartialCost,
    Solution,
    SolveRequest,
    SolverBackend,
    zero_cost,
)
from repro.smt.budget import Budget
from repro.smt.model import ScheduleModel

__all__ = ["OptimizingSolver", "Solution", "PartialCost"]


class OptimizingSolver:
    """Exact (small) / greedy (large) optimizer for a :class:`ScheduleModel`.

    ``budget`` (a shared :class:`~repro.smt.budget.Budget`) bounds solve
    time; the scheduler passes one to hand every layer one clock.  Without
    it the solver owns an unlimited ``Budget()``.  ``backend`` pins a specific
    :class:`~repro.smt.backends.SolverBackend`, bypassing the
    decision-count auto-switch in :meth:`solve`.
    """

    def __init__(self, model: ScheduleModel, partial_cost: Optional[PartialCost] = None,
                 exact_decision_limit: int = 14, max_nodes: int = 200_000,
                 budget: Optional[Budget] = None,
                 backend: Optional[SolverBackend] = None):
        self.model = model
        self.partial_cost = partial_cost or zero_cost
        self.exact_decision_limit = exact_decision_limit
        self.max_nodes = max_nodes
        self.budget = budget if budget is not None else Budget()
        self.backend = backend

    # ------------------------------------------------------------------
    def request(self) -> SolveRequest:
        """The :class:`SolveRequest` this solver hands its backends."""
        return SolveRequest(
            model=self.model,
            partial_cost=self.partial_cost,
            budget=self.budget,
            exact_decision_limit=self.exact_decision_limit,
            max_nodes=self.max_nodes,
        )

    # ------------------------------------------------------------------
    def solve(self) -> Solution:
        """Exact B&B when the decision count is small, else greedy dive
        (or the pinned ``backend`` when one was supplied).

        Opens an ``smt.solve`` observability span (nested under whatever
        pass or session is active) carrying solve time, node count, and
        the model's constraint/variable/decision counts in the
        ``smt.solve.*`` namespace, mirrors the same figures into the
        process-wide metrics registry, and logs one ``smt.solve`` event.
        """
        model = self.model
        with obs_span("smt.solve") as record:
            started = time.perf_counter()
            if self.backend is not None:
                solution = self.backend.solve(self.request())
            elif len(model.decisions) <= self.exact_decision_limit:
                solution = self.solve_exact()
            else:
                solution = self.solve_greedy()
            seconds = time.perf_counter() - started
            record.counters.update({
                "smt.solve.seconds": seconds,
                "smt.solve.nodes": float(solution.nodes_explored),
                "smt.solve.decisions": float(len(model.decisions)),
                "smt.solve.constraints": float(len(model.base_constraints)),
                "smt.solve.variables": float(model.num_vars),
                "smt.solve.exact": 1.0 if solution.exact else 0.0,
                "smt.solve.interrupted": 1.0 if solution.interrupt else 0.0,
            })
            registry = get_registry()
            registry.inc("smt.solves")
            registry.inc("smt.nodes_explored", solution.nodes_explored)
            registry.observe("smt.solve.seconds", seconds)
            registry.set("smt.last.constraints", len(model.base_constraints))
            registry.set("smt.last.decisions", len(model.decisions))
            log_event(
                "smt.solve",
                seconds=seconds,
                nodes=solution.nodes_explored,
                decisions=len(model.decisions),
                constraints=len(model.base_constraints),
                variables=model.num_vars,
                exact=solution.exact,
                interrupt=solution.interrupt,
                objective=solution.objective,
            )
        return solution

    # ------------------------------------------------------------------
    def solve_exact(self) -> Solution:
        return ExactBnB().solve(self.request())

    def solve_greedy(self) -> Solution:
        return GreedyDive().solve(self.request())
