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

Every node's bound is the optimum of its LP (a linear objective over
difference constraints), which :func:`lp_minimize` solves exactly in pure
Python through its dual, a transportation problem over longest paths.
Among optimal start times it returns the component-wise earliest, so the
times are a pure function of the constraint set.

A search does not solve each node's LP from nothing.  One
:class:`_Search` per solve keeps the constraint graph on adjacency lists
and each node's longest paths; a child adds only its option's arcs, so it
relaxes only from them (the incremental difference-logic propagation of
Cotton & Maler, SAT 2006, behind Z3's difference-logic solver).  The
returned solution is still scored by :func:`evaluate`, so its times and
objective are exactly what :func:`lp_minimize` gives for the assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.smt.budget import Budget
from repro.smt.feasibility import RELAX_TOL, difference_feasible
from repro.smt.model import DiffConstraint, ScheduleModel

PartialCost = Callable[[Tuple[int, ...]], float]

#: Objective coefficients, supplies and flows at or below this share of
#: the total objective weight count as zero (sums of the scheduler's
#: lifetime coefficients cancel only up to rounding).
FLOW_TOL = 1e-12

#: Cap on transportation augmentations, per source and sink.
_MAX_AUGMENTATIONS = 16

#: An arc in the direction it is relaxed: ``(tail, head, weight)``; a
#: ``None`` tail is the origin (time 0), i.e. a lower bound on ``head``.
_Arc = Tuple[Optional[int], int, float]

#: The forward and the backward arcs some constraints add.
_Arcs = Tuple[List[_Arc], List[_Arc]]

#: A node's longest paths: the forward (ASAP) distances, and per objective
#: sink the longest path from every variable to it (``None`` once only
#: feasibility is being tracked).
_Node = Tuple[List[float], Optional[List[List[float]]]]


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
# the LP over difference constraints
# ----------------------------------------------------------------------
def _canonical(con: DiffConstraint) -> Tuple[int, int, float]:
    return (con.var_hi, -1 if con.var_lo is None else con.var_lo, con.offset)


class _Dual:
    """The part of the LP's dual that only the objective fixes.

    The dual is an uncapacitated min-cost flow on the constraint graph
    (supply ``-c_v`` at each variable), so it reduces to a transportation
    problem from the negative-coefficient variables (sources) to the
    positive ones (sinks), weighted by longest paths.
    """

    def __init__(self, model: ScheduleModel):
        tol = FLOW_TOL * sum(abs(c) for c in model.objective.values())
        coeffs = [(v, c) for v, c in sorted(model.objective.items())
                  if abs(c) > tol]
        self.offset = model.objective_offset
        self.constant = not coeffs
        self.sources = [v for v, c in coeffs if c < 0.0]
        self.sinks = [v for v, c in coeffs if c > 0.0]
        self.supply = [-c for _, c in coeffs if c < 0.0]
        self.demand = [c for _, c in coeffs if c > 0.0]
        surplus = sum(self.demand) - sum(self.supply)
        #: Shifting every start later lowers the objective.
        self.unbounded = surplus < -tol
        #: The origin (time 0) supplies the rest; its paths are the ASAP
        #: times, since every variable has an arc from it.
        self.from_origin = surplus > tol
        if self.from_origin:
            self.supply.append(surplus)

    def weights(self, node: _Node) -> List[List[float]]:
        """``weights[i][j]``: the longest path from source i to sink j,
        which is what a unit of flow from i to j earns in the dual."""
        asap, to_sinks = node
        weights = [[to_t[s] for to_t in to_sinks] for s in self.sources]
        if self.from_origin:
            weights.append([asap[t] for t in self.sinks])
        return weights

    def solve(self, weights: List[List[float]]
              ) -> Optional[Tuple[float, Dict[Tuple[int, int], float]]]:
        """The LP's optimum (offset included) and an optimal flow, or None
        when some source reaches too little sink demand (unbounded)."""
        flow = _transport(self.supply, self.demand, weights)
        if flow is None:
            return None
        value = sum(y * weights[i][j] for (i, j), y in flow.items())
        return value + self.offset, flow


def _root(num_vars: int, constraints: Sequence[DiffConstraint],
          dual: _Dual) -> Optional[_Node]:
    """Longest paths over canonically ordered ``constraints``, from
    scratch: the ASAP times and one reverse pass per sink (None when
    infeasible)."""
    asap = difference_feasible(num_vars, constraints)
    if asap is None:
        return None
    to_sinks = []
    for t in dual.sinks:
        initial = [-math.inf] * num_vars
        initial[t] = 0.0
        to_sinks.append(difference_feasible(num_vars, constraints, initial,
                                            reverse=True))
    return asap, to_sinks


def lp_minimize(model: ScheduleModel,
                constraints: Sequence[DiffConstraint]
                ) -> Optional[Tuple[float, np.ndarray]]:
    """Minimize the model's linear objective subject to ``constraints``.

    Returns ``(value, x)``, or None when the constraints are infeasible or
    the objective is unbounded below.  ``x`` is the component-wise
    earliest optimal point, which is unique; with an all-zero objective
    that is the ASAP solution from the feasibility check.

    The value is the transportation dual over the longest paths of
    :func:`_root` (see :class:`_Dual`).  Constraints are relaxed in a
    canonical order, so any ordering of the same constraints gives
    bitwise-equal times.
    """
    n = model.num_vars
    constraints = sorted(constraints, key=_canonical)
    dual = _Dual(model)
    if dual.unbounded:
        return None
    node = _root(n, constraints, dual)
    if node is None:
        return None
    if dual.constant:
        return model.objective_offset, np.asarray(node[0])
    weights = dual.weights(node)
    solved = dual.solve(weights)
    if solved is None:
        return None
    value, flow = solved
    # The optimal face pins x_t - x_s = weights[s][t] wherever flow runs;
    # its least point is the longest-path solution with those arcs added.
    tight = [(dual.sinks[j], dual.sources[i], -weights[i][j])
             for i, j in flow if i < len(dual.sources)]
    x = difference_feasible(n, constraints, extra=tight)
    if x is None:  # pragma: no cover - optimal flows leave no positive cycle
        raise RuntimeError("optimal face of the LP is empty")
    return value, np.asarray(x)


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


# ----------------------------------------------------------------------
# incremental longest paths for one search
# ----------------------------------------------------------------------
def _lengthen(dist: List[float], arcs: Sequence[_Arc],
              adjacency: Sequence[List[Tuple[int, float]]],
              limit: int) -> Optional[List[float]]:
    """``dist`` after adding ``arcs``, relaxing onward only from what they
    improve; ``dist`` itself when they improve nothing (it is never
    modified), None on a positive cycle.

    Adding arcs only lengthens longest paths, and the previous distances
    satisfied every older arc, so any positive cycle passes through a new
    arc.  A chain of improvements longer than ``limit`` (the variable
    count) repeats a variable whose distance grew around it: that cycle.
    """
    out: Optional[List[float]] = None
    steps: Dict[int, int] = {}
    for tail, head, w in arcs:
        current = dist if out is None else out
        cand = w if tail is None else current[tail] + w
        if cand > current[head] + RELAX_TOL:
            if out is None:
                out = list(dist)
            out[head] = cand
            steps[head] = 1
    if out is None:
        return dist
    # First-in first-out, so a variable is re-queued about once per path
    # length rather than once per improvement.
    queue = list(steps)
    queued = set(queue)
    for v in queue:
        queued.discard(v)
        base = out[v]
        depth = steps[v] + 1
        for u, w in adjacency[v]:
            cand = base + w
            if cand > out[u] + RELAX_TOL:
                if depth > limit:
                    return None
                out[u] = cand
                steps[u] = depth
                if u not in queued:
                    queued.add(u)
                    queue.append(u)
    return out


class _Search:
    """One solve's difference-logic state, shared by every node it visits.

    The constraint graph lives on adjacency lists, forward (for ASAP
    times) and backward (for the longest paths into each sink).  The root
    is solved from scratch in canonical order, exactly as
    :func:`lp_minimize` would; a child :meth:`push`\\ es its option's arcs
    and copies only the distance arrays they lengthen.  Node values are
    memoised by their weight matrix: identical weights give an identical
    flow, hence a bitwise-identical value.
    """

    def __init__(self, model: ScheduleModel):
        n = model.num_vars
        self.num_vars = n
        self.dual = _Dual(model)
        self._succ: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._pred: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        self._values: Dict[Tuple[Tuple[float, ...], ...], Optional[float]] = {}
        base = sorted(model.base_constraints, key=_canonical)
        self.push(self._arcs(base))
        self.root = _root(n, base, self.dual)
        #: ``options[d][k]``: the arcs option k of decision d adds.
        self.options = [[self._arcs(option.constraints)
                         for option in decision.options]
                        for decision in model.decisions]

    @staticmethod
    def _arcs(constraints: Sequence[DiffConstraint]) -> _Arcs:
        """Forward and backward arcs of ``constraints`` (lower bounds are
        forward only: the origin is no variable to reach)."""
        forward = [(c.var_lo, c.var_hi, c.offset) for c in constraints]
        backward = [(c.var_hi, c.var_lo, c.offset) for c in constraints
                    if c.var_lo is not None]
        return forward, backward

    def push(self, arcs: _Arcs) -> None:
        forward, backward = arcs
        for tail, head, w in forward:
            if tail is not None:
                self._succ[tail].append((head, w))
        for tail, head, w in backward:
            self._pred[tail].append((head, w))

    def pop(self, arcs: _Arcs) -> None:
        """Undo the matching :meth:`push` (pushes and pops nest)."""
        forward, backward = arcs
        for tail, _, _ in forward:
            if tail is not None:
                self._succ[tail].pop()
        for tail, _, _ in backward:
            self._pred[tail].pop()

    def feasible(self, node: Optional[_Node],
                 arcs: _Arcs) -> Optional[_Node]:
        """The child (already pushed) with its ASAP times only, or None
        when it is infeasible."""
        if node is None:
            return None
        asap = _lengthen(node[0], arcs[0], self._succ, self.num_vars)
        return None if asap is None else (asap, None)

    def child(self, node: Optional[_Node], arcs: _Arcs) -> Optional[_Node]:
        """The child (already pushed) with every longest path, or None
        when it is infeasible."""
        if node is None:
            return None
        asap = _lengthen(node[0], arcs[0], self._succ, self.num_vars)
        if asap is None:
            return None
        to_sinks = []
        for to_t in node[1]:
            to_t = _lengthen(to_t, arcs[1], self._pred, self.num_vars)
            if to_t is None:  # pragma: no cover - the forward pass refutes it
                return None
            to_sinks.append(to_t)
        return asap, to_sinks

    def value(self, node: Optional[_Node]) -> Optional[float]:
        """The node's LP optimum, as :func:`lp_minimize` computes it
        (None when infeasible or unbounded)."""
        dual = self.dual
        if node is None or dual.unbounded:
            return None
        if dual.constant:
            return dual.offset
        weights = dual.weights(node)
        key = tuple(map(tuple, weights))
        if key not in self._values:
            solved = dual.solve(weights)
            self._values[key] = None if solved is None else solved[0]
        return self._values[key]


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


def _no_option(decision) -> RuntimeError:
    return RuntimeError(
        f"decision {decision.name!r} has no feasible option given "
        "earlier choices"
    )


def _dive(request: SolveRequest, search: _Search) -> Solution:
    """:class:`GreedyDive` over ``search``, which it leaves as it found."""
    model = request.model
    budget = request.budget
    armed = budget.arm()
    interrupt: Optional[str] = None
    assignment: List[int] = []
    taken: List[_Arcs] = []
    node = search.root
    try:
        for decision, options in zip(model.decisions, search.options):
            if interrupt is not None or budget.expired():
                # Out of time: the lowest-index feasible option, found
                # without LP scoring.
                interrupt = "deadline"
                for k, arcs in enumerate(options):
                    search.push(arcs)
                    child = search.feasible(node, arcs)
                    if child is not None:
                        break
                    search.pop(arcs)
                else:
                    raise _no_option(decision)
            else:
                best_k = None
                best_score = float("inf")
                for k, arcs in enumerate(options):
                    search.push(arcs)
                    candidate = search.child(node, arcs)
                    search.pop(arcs)
                    value = search.value(candidate)
                    if value is None:
                        continue
                    score = request.cost(assignment + [k]) + value
                    if score < best_score - 1e-12:
                        best_score = score
                        best_k, child = k, candidate
                if best_k is None:
                    raise _no_option(decision)
                k, arcs = best_k, options[best_k]
                search.push(arcs)
            taken.append(arcs)
            assignment.append(k)
            node = child
    finally:
        for arcs in reversed(taken):
            search.pop(arcs)
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


class GreedyDive(SolverBackend):
    """One best-bound pass over the decisions, no backtracking.

    When the budget expires mid-dive, the remaining decisions are taken
    by first-feasibility (no LP scoring) — still a valid schedule, just
    no longer cost-guided — and the result is marked
    ``interrupt="deadline"``.
    """

    def solve(self, request: SolveRequest) -> Solution:
        return _dive(request, _Search(request.model))


class ExactBnB(SolverBackend):
    """Depth-first branch-and-bound with LP bounding.

    Exact (``solution.exact``) unless the node cap or the budget cuts the
    search short, in which case the best incumbent found so far is
    returned with the interrupt reason recorded.
    """

    def solve(self, request: SolveRequest) -> Solution:
        model = request.model
        budget = request.budget
        decisions = len(model.decisions)
        armed = budget.arm()
        search = _Search(model)
        nodes = 0
        interrupt: Optional[str] = None
        try:
            # Incumbent first: dramatically improves pruning.
            incumbent = _dive(request, search)
            interrupt = incumbent.interrupt
            best_bound = incumbent.objective
            best: Optional[Tuple[int, ...]] = None
            prefix: List[int] = []

            def recurse(parent: Optional[_Node], arcs: Optional[_Arcs],
                        constant: float) -> None:
                """Visit the node ``arcs`` (pushed) add to ``parent``;
                ``arcs`` is None at the root."""
                nonlocal nodes, interrupt, best_bound, best
                if interrupt is not None:
                    return
                nodes += 1
                if nodes > request.max_nodes:
                    interrupt = "nodes"
                    return
                if budget.expired():
                    interrupt = "deadline"
                    return
                node = parent if arcs is None else search.child(parent, arcs)
                value = search.value(node)
                if value is None:
                    return  # infeasible branch
                bound = constant + value
                if bound >= best_bound - 1e-12:
                    return
                if len(prefix) == decisions:
                    best_bound = bound
                    best = tuple(prefix)
                    return
                # Explore options in ascending immediate-cost order.
                options = search.options[len(prefix)]
                costs = [request.cost(prefix + [k])
                         for k in range(len(options))]
                for k in sorted(range(len(options)), key=costs.__getitem__):
                    search.push(options[k])
                    prefix.append(k)
                    recurse(node, options[k], costs[k])
                    prefix.pop()
                    search.pop(options[k])

            recurse(search.root, None, request.cost(prefix))
        finally:
            if armed:
                budget.disarm()
        solution = incumbent if best is None else evaluate(request, best)
        if solution is None:  # pragma: no cover - the search found it feasible
            raise RuntimeError("search produced an infeasible assignment")
        return replace(solution, nodes_explored=nodes,
                       exact=interrupt is None, interrupt=interrupt)
