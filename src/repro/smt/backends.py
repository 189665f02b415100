"""Interchangeable solver backends behind one request/solution contract.

:class:`~repro.smt.solver.OptimizingSolver` historically owned two search
strategies as private methods (exact branch-and-bound and a greedy fast
dive).  Device-scale scheduling also needs windowed decomposition, so the
strategies live here as :class:`SolverBackend` implementations sharing a
:class:`SolveRequest`/:class:`Solution` contract that carries the model,
the monotone partial-cost callback, and the (single, shared)
:class:`~repro.smt.budget.Budget`.

Backends are small, configuration-only objects that hold no model state.
All of them are deterministic: same request, same answer.

* :class:`ExactBnB` — depth-first branch-and-bound with LP bounding,
  seeded by a greedy incumbent; exact within ``max_nodes`` / budget.
* :class:`GreedyDive` — one pass of best-bound decisions, no
  backtracking; the historical large-instance mode.

The windowed-decomposition backend lives in :mod:`repro.smt.windows`
(it layers on top of the primitives here).

Every backend bounds and scores its nodes with :func:`lp_minimize`, which
solves the node's LP (a linear objective over difference constraints)
exactly in pure Python through its dual, a transportation problem over
longest paths.  Among optimal start times it returns the component-wise
earliest, so the times are a pure function of the constraint set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.smt.budget import Budget
from repro.smt.feasibility import RELAX_TOL, difference_feasible
from repro.smt.model import Decision, DiffConstraint, ScheduleModel

PartialCost = Callable[[Tuple[int, ...]], float]

#: Objective coefficients, supplies and flows at or below this share of
#: the total objective weight count as zero (sums of the scheduler's
#: lifetime coefficients cancel only up to rounding).
FLOW_TOL = 1e-12

#: Cap on transportation augmentations, per source and sink.
_MAX_AUGMENTATIONS = 16


def zero_cost(assignment: Tuple[int, ...]) -> float:
    """The default (constant-free) partial cost; module-level so requests
    built without a callback still pickle."""
    return 0.0


@dataclass
class Solution:
    """Solver output.

    ``interrupt`` records why the search was cut short, if it was:
    ``"deadline"`` (the budget expired) or ``"nodes"`` (the ``max_nodes``
    cap).  An interrupted solution is still *valid* — it satisfies every
    constraint — just not proven optimal; callers like
    :class:`~repro.core.scheduling.xtalk.XtalkScheduler` use the field to
    decide whether to keep the incumbent or fall back entirely.
    """

    assignment: Tuple[int, ...]
    times: Tuple[float, ...]
    objective: float
    constant_part: float
    linear_part: float
    nodes_explored: int
    exact: bool
    interrupt: Optional[str] = None

    def option_labels(self, model: ScheduleModel) -> Tuple[str, ...]:
        return tuple(
            decision.options[choice].label
            for decision, choice in zip(model.decisions, self.assignment)
        )


@dataclass
class SolveRequest:
    """Everything a backend needs to produce a :class:`Solution`.

    One request is built per logical solve and shared by every backend
    that works on it (the exact search's internal greedy incumbent, every
    decomposition window), so the ``budget`` clock is armed exactly once
    no matter how many layers run.
    """

    model: ScheduleModel
    partial_cost: PartialCost = zero_cost
    budget: Budget = field(default_factory=Budget)
    exact_decision_limit: int = 14
    max_nodes: int = 200_000

    def cost(self, assignment: Sequence[int]) -> float:
        return self.partial_cost(tuple(assignment))


# ----------------------------------------------------------------------
# shared primitives
# ----------------------------------------------------------------------
def _canonical(con: DiffConstraint) -> Tuple[int, int, float]:
    return (con.var_hi, -1 if con.var_lo is None else con.var_lo, con.offset)


def lp_minimize(model: ScheduleModel,
                constraints: Sequence[DiffConstraint]
                ) -> Optional[Tuple[float, np.ndarray]]:
    """Minimize the model's linear objective subject to ``constraints``.

    Returns ``(value, x)``, or None when the constraints are infeasible or
    the objective is unbounded below.  ``x`` is the component-wise
    earliest optimal point, which is unique; with an all-zero objective
    that is the ASAP solution from the feasibility check.

    The LP's dual is an uncapacitated min-cost flow on the constraint
    graph (supply ``-c_v`` at each variable), so it reduces to a
    transportation problem from the negative-coefficient variables
    (sources) to the positive ones (sinks), weighted by longest paths.
    Constraints are relaxed in a canonical order, so any ordering of the
    same constraints gives bitwise-equal times.
    """
    n = model.num_vars
    constraints = sorted(constraints, key=_canonical)
    asap = difference_feasible(n, constraints)
    if asap is None:
        return None
    tol = FLOW_TOL * sum(abs(c) for c in model.objective.values())
    coeffs = [(v, c) for v, c in sorted(model.objective.items()) if abs(c) > tol]
    if not coeffs:
        return model.objective_offset, np.asarray(asap)

    sources = [v for v, c in coeffs if c < 0.0]
    sinks = [v for v, c in coeffs if c > 0.0]
    supply = [-c for _, c in coeffs if c < 0.0]
    demand = [c for _, c in coeffs if c > 0.0]
    surplus = sum(demand) - sum(supply)
    if surplus < -tol:
        return None  # shifting every start later lowers the objective
    # weights[i][j]: the longest path from source i to sink j, which is
    # what a unit of flow from i to j earns in the dual.
    weights: List[List[float]] = [[] for _ in sources]
    for t in sinks:
        initial = [-math.inf] * n
        initial[t] = 0.0
        to_t = difference_feasible(n, constraints, initial, reverse=True)
        for row, s in zip(weights, sources):
            row.append(to_t[s])
    if surplus > tol:
        # The origin (time 0) supplies the rest; its paths are the ASAP
        # times, since every variable has an arc from it.
        supply.append(surplus)
        weights.append([asap[t] for t in sinks])
    flow = _transport(supply, demand, weights)
    if flow is None:
        return None  # some source reaches too little sink demand
    value = sum(y * weights[i][j] for (i, j), y in flow.items())
    # The optimal face pins x_t - x_s = weights[s][t] wherever flow runs;
    # its least point is the longest-path solution with those arcs added.
    tight = [(sinks[j], sources[i], -weights[i][j])
             for i, j in flow if i < len(sources)]
    x = difference_feasible(n, constraints, extra=tight)
    if x is None:  # pragma: no cover - optimal flows leave no positive cycle
        raise RuntimeError("optimal face of the LP is empty")
    return value + model.objective_offset, np.asarray(x)


def _transport(supply: Sequence[float], demand: Sequence[float],
               weights: Sequence[Sequence[float]]
               ) -> Optional[Dict[Tuple[int, int], float]]:
    """Max-weight transportation: ship every ``supply[i]`` to meet every
    ``demand[j]``, earning ``weights[i][j]`` per unit (``-inf``: no route).

    Returns the positive flows ``{(i, j): amount}``, or None when the
    demand cannot be met.  One sink takes everything; otherwise successive
    shortest paths augment along the cheapest route (costs are negated
    weights) of the residual graph until every demand is met.
    """
    if len(demand) == 1:
        if any(row[0] == -math.inf for row in weights):
            return None
        return {(i, 0): amount for i, amount in enumerate(supply)}
    tol = FLOW_TOL * sum(demand)
    left = list(supply)
    need = list(demand)
    flow: Dict[Tuple[int, int], float] = {}
    rows, cols = range(len(supply)), range(len(demand))
    for _ in range(_MAX_AUGMENTATIONS * (len(supply) + len(demand))):
        if all(amount <= tol for amount in need):
            return flow
        # Bellman-Ford from every source with supply left: forward arcs
        # i -> j cost -w, backward arcs j -> i (where flow runs) cost +w.
        at_source = [0.0 if amount > tol else math.inf for amount in left]
        at_sink = [math.inf] * len(demand)
        via_source: List[int] = [-1] * len(demand)
        via_sink: List[int] = [-1] * len(supply)
        for _ in range(len(supply) + len(demand)):
            changed = False
            for i in rows:
                base = at_source[i]
                if base == math.inf:
                    continue
                row = weights[i]
                for j in cols:
                    cost = base - row[j]
                    if cost < at_sink[j] - RELAX_TOL:
                        at_sink[j] = cost
                        via_source[j] = i
                        changed = True
            for i, j in flow:
                cost = at_sink[j] + weights[i][j]
                if cost < at_source[i] - RELAX_TOL:
                    at_source[i] = cost
                    via_sink[i] = j
                    changed = True
            if not changed:
                break
        open_sinks = [j for j, amount in enumerate(need) if amount > tol]
        sink = min(open_sinks, key=lambda j: at_sink[j])
        if at_sink[sink] == math.inf:
            return None
        # Walk the path back to its source, noting the bottleneck.
        forward, backward = [], []
        j = sink
        while True:
            i = via_source[j]
            forward.append((i, j))
            if via_sink[i] < 0:
                break
            j = via_sink[i]
            backward.append((i, j))
        amount = min([left[i], need[sink]] + [flow[arc] for arc in backward])
        left[i] -= amount
        need[sink] -= amount
        for arc in forward:
            flow[arc] = flow.get(arc, 0.0) + amount
        for arc in backward:
            flow[arc] -= amount
            if flow[arc] <= tol:
                del flow[arc]
    raise RuntimeError("transportation solve did not converge")


def first_feasible(model: ScheduleModel, assignment: Sequence[int],
                   decision: Decision) -> int:
    """The lowest-index feasible option, found without LP scoring."""
    base = list(assignment)
    for k in range(len(decision.options)):
        feasible = difference_feasible(
            model.num_vars, model.constraints_for(base + [k]),
        )
        if feasible is not None:
            return k
    raise RuntimeError(
        f"decision {decision.name!r} has no feasible option given "
        "earlier choices"
    )


def evaluate(request: SolveRequest, assignment: Sequence[int],
             *, exact: bool = False,
             interrupt: Optional[str] = None,
             nodes: Optional[int] = None) -> Optional[Solution]:
    """LP-score a complete assignment into a :class:`Solution` (or None
    when the assignment is infeasible)."""
    model = request.model
    lp = lp_minimize(model, model.constraints_for(assignment))
    if lp is None:
        return None
    constant = request.cost(assignment)
    return Solution(
        assignment=tuple(assignment),
        times=tuple(float(v) for v in lp[1]),
        objective=constant + lp[0],
        constant_part=constant,
        linear_part=lp[0],
        nodes_explored=len(assignment) if nodes is None else nodes,
        exact=exact,
        interrupt=interrupt,
    )


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class SolverBackend:
    """Base class: a deterministic solve strategy."""

    def solve(self, request: SolveRequest) -> Solution:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GreedyDive(SolverBackend):
    """One best-bound pass over the decisions, no backtracking.

    When the budget expires mid-dive, the remaining decisions are taken
    by first-feasibility (no LP scoring) — still a valid schedule, just
    no longer cost-guided — and the result is marked
    ``interrupt="deadline"``.
    """

    def solve(self, request: SolveRequest) -> Solution:
        model = request.model
        budget = request.budget
        armed = budget.arm()
        interrupt: Optional[str] = None
        assignment: List[int] = []
        try:
            for decision in model.decisions:
                if budget.expired():
                    interrupt = "deadline"
                    assignment.append(
                        first_feasible(model, assignment, decision)
                    )
                    continue
                best_k = None
                best_score = float("inf")
                for k in range(len(decision.options)):
                    candidate = assignment + [k]
                    lp = lp_minimize(model, model.constraints_for(candidate))
                    if lp is None:
                        continue
                    score = request.cost(candidate) + lp[0]
                    if score < best_score - 1e-12:
                        best_score = score
                        best_k = k
                if best_k is None:
                    raise RuntimeError(
                        f"decision {decision.name!r} has no feasible option "
                        "given earlier choices"
                    )
                assignment.append(best_k)
        finally:
            if armed:
                budget.disarm()
        solution = evaluate(
            request, assignment,
            exact=len(model.decisions) == 0 and interrupt is None,
            interrupt=interrupt,
        )
        if solution is None:  # pragma: no cover - guarded per step
            raise RuntimeError("greedy produced an infeasible assignment")
        return solution


class ExactBnB(SolverBackend):
    """Depth-first branch-and-bound with LP bounding.

    Exact (``solution.exact``) unless the node cap or the budget cuts the
    search short, in which case the best incumbent found so far is
    returned with the interrupt reason recorded.
    """

    def solve(self, request: SolveRequest) -> Solution:
        model = request.model
        budget = request.budget
        armed = budget.arm()
        state = {"nodes": 0, "interrupted": False, "reason": None}
        try:
            # Incumbent first: dramatically improves pruning.
            incumbent = GreedyDive().solve(request)
            best = [incumbent.objective, incumbent]
            if incumbent.interrupt is not None:
                state["interrupted"] = True
                state["reason"] = incumbent.interrupt

            def recurse(prefix: List[int]) -> None:
                if state["interrupted"]:
                    return
                state["nodes"] += 1
                if state["nodes"] > request.max_nodes:
                    state["interrupted"] = True
                    state["reason"] = "nodes"
                    return
                if budget.expired():
                    state["interrupted"] = True
                    state["reason"] = "deadline"
                    return
                constraints = model.constraints_for(prefix)
                lp = lp_minimize(model, constraints)
                if lp is None:
                    return  # infeasible branch
                constant = request.cost(prefix)
                bound = constant + lp[0]
                if bound >= best[0] - 1e-12:
                    return
                if len(prefix) == len(model.decisions):
                    best[0] = bound
                    best[1] = Solution(
                        assignment=tuple(prefix),
                        times=tuple(float(v) for v in lp[1]),
                        objective=bound,
                        constant_part=constant,
                        linear_part=lp[0],
                        nodes_explored=state["nodes"],
                        exact=True,
                    )
                    return
                decision = model.decisions[len(prefix)]
                # Explore options in ascending immediate-cost order.
                scored = sorted(
                    range(len(decision.options)),
                    key=lambda k: request.cost(prefix + [k]),
                )
                for k in scored:
                    prefix.append(k)
                    recurse(prefix)
                    prefix.pop()

            recurse([])
        finally:
            if armed:
                budget.disarm()
        solution = best[1]
        return Solution(
            assignment=solution.assignment,
            times=solution.times,
            objective=solution.objective,
            constant_part=solution.constant_part,
            linear_part=solution.linear_part,
            nodes_explored=state["nodes"],
            exact=not state["interrupted"],
            interrupt=state["reason"],
        )
