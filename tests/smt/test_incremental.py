"""The incremental search against the from-scratch search it replaced.

``ExactBnB`` and ``GreedyDive`` keep one ``_Search`` per solve, and a child
relaxes only from the arcs its option adds.  Two oracles pin that down:

* at every node, the search's distances and value equal what
  ``lp_minimize`` computes from scratch on ``constraints_for(prefix)``,
  bitwise, and the two agree on feasibility;
* :func:`_reference_exact_bnb` and :func:`_reference_greedy` keep the
  from-scratch searches (one LP per node, each solved from nothing), and
  every ``Solution`` field must equal theirs.

Models come from hypothesis seeds (shaped like ``test_lp.py``'s, with
options that close positive cycles and options that carry lower bounds)
and from XtalkSched itself: the Fig 5 SWAP set and the four QAOA regions
on Poughkeepsie, and one heavy-hex circuit on the windowed path.
"""

import dataclasses
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling import xtalk
from repro.core.scheduling.xtalk import XtalkScheduler
from repro.device.presets import ibm_hummingbird_65q
from repro.experiments.common import ground_truth_report
from repro.smt import backends, windows
from repro.smt.backends import (
    ExactBnB,
    GreedyDive,
    Solution,
    SolveRequest,
    SolverBackend,
    evaluate,
    lp_minimize,
)
from repro.smt.budget import Budget
from repro.smt.feasibility import difference_feasible
from repro.smt.model import Decision, DiffConstraint, Option, ScheduleModel
from repro.smt.solver import OptimizingSolver
from repro.smt.windows import WindowedSolver
from repro.workloads.qaoa import QAOA_REGIONS, qaoa_on_region
from repro.workloads.supremacy import supremacy_circuit
from repro.workloads.swap import (
    crosstalk_affected_endpoints,
    crosstalk_route,
    swap_benchmark,
)


# ----------------------------------------------------------------------
# the from-scratch searches (the incremental search's reference)
# ----------------------------------------------------------------------
def _reference_first_feasible(model, assignment, decision):
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


def _reference_greedy(request: SolveRequest) -> Solution:
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
                    _reference_first_feasible(model, assignment, decision)
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
    if solution is None:
        raise RuntimeError("greedy produced an infeasible assignment")
    return solution


def _reference_exact_bnb(request: SolveRequest) -> Solution:
    model = request.model
    budget = request.budget
    armed = budget.arm()
    state = {"nodes": 0, "interrupted": False, "reason": None}
    try:
        incumbent = _reference_greedy(request)
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
                return
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
    return dataclasses.replace(
        solution, nodes_explored=state["nodes"],
        exact=not state["interrupted"], interrupt=state["reason"],
    )


class _ReferenceExact(SolverBackend):
    """The from-scratch search where a backend class is looked up."""

    def solve(self, request):
        return _reference_exact_bnb(request)


class _Expired(Budget):
    """A budget that has already run out when the solve starts."""

    def expired(self) -> bool:
        return True


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------
class _TableCost:
    """A monotone partial cost: a non-negative price per chosen option."""

    def __init__(self, table):
        self.table = table

    def __call__(self, assignment):
        return float(sum(self.table[d][k] for d, k in enumerate(assignment)))


def random_search_model(seed):
    """A random model with the scheduler's shapes plus decisions.

    Base arcs are dependencies and lower bounds as in ``test_lp.py``.
    Each decision orders two variables either way or contains one in the
    other; some add a lower bound or a deadline arc (``x_a - x_b >=
    -slack``), so combinations close positive cycles.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    model = ScheduleModel(n)
    for _ in range(int(rng.integers(n - 1, 2 * n))):
        lo, hi = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        model.add_constraint(DiffConstraint.after(hi, lo, float(rng.uniform(0, 5))))
    for _ in range(int(rng.integers(0, 2))):
        model.add_constraint(DiffConstraint.at_least(
            int(rng.integers(n)), float(rng.uniform(0, 8))))
    table = []
    for d in range(int(rng.integers(1, 6))):
        a, b = (int(v) for v in rng.choice(n, 2, replace=False))
        options = [
            Option("a_first", (DiffConstraint.after(b, a, float(rng.uniform(0, 5))),)),
            Option("b_first", (DiffConstraint.after(a, b, float(rng.uniform(0, 5))),)),
            Option("contain", (DiffConstraint.after(a, b, 0.0),
                               DiffConstraint(b, a, -float(rng.uniform(0, 3))))),
        ]
        if rng.random() < 0.5:
            options.append(Option("late", (DiffConstraint.at_least(
                int(rng.integers(n)), float(rng.uniform(0, 12))),)))
        if rng.random() < 0.4:
            options.append(Option("deadline", (DiffConstraint(
                a, b, -float(rng.uniform(0, 4))),)))
        model.add_decision(Decision(f"d{d}", tuple(options)))
        table.append([float(rng.choice([0.0, rng.uniform(0, 2)]))
                      for _ in options])
    for _ in range(int(rng.integers(1, 4))):
        first, last = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        model.add_constraint(DiffConstraint.after(last, first, float(rng.uniform(0, 5))))
        weight = float(rng.uniform(0.1, 2.0))
        model.add_objective_term(last, weight)
        model.add_objective_term(first, -weight)
    if rng.random() < 0.3:
        model.add_objective_term(int(rng.integers(n)), float(rng.uniform(0.1, 1)))
    if rng.random() < 0.05:
        model.add_objective_term(int(rng.integers(n)), -float(rng.uniform(0.1, 1)))
    if rng.random() < 0.1:
        model.objective.clear()  # pure ASAP: every value is the offset
    model.objective_offset = float(rng.uniform(0, 2))
    return model, _TableCost(table)


def _requests(scheduler, circuits, monkeypatch):
    """The request (and pinned backend) each circuit's solve builds."""
    captured = []

    class Recording(OptimizingSolver):
        def solve(self):
            captured.append((self.request(), self.backend))
            return super().solve()

    with monkeypatch.context() as patch:
        patch.setattr(xtalk, "OptimizingSolver", Recording)
        for circuit in circuits:
            scheduler.schedule(circuit)
    return captured


@pytest.fixture(scope="module")
def poughkeepsie_requests(poughkeepsie, pk_report):
    """XtalkSched's requests for the Fig 5 SWAP set (omega 0.5) and the
    four QAOA regions (omega 0, 0.5, 1)."""
    coupling = poughkeepsie.coupling
    high = pk_report.high_pairs()
    swaps = [
        swap_benchmark(coupling, s, d,
                       path=crosstalk_route(coupling, s, d, high)).circuit
        for s, d in crosstalk_affected_endpoints(coupling, high)
    ]
    qaoa = [qaoa_on_region(coupling, region, seed=0)
            for region in QAOA_REGIONS]
    patch = pytest.MonkeyPatch()
    try:
        calibration = poughkeepsie.calibration()
        swap_requests = _requests(
            XtalkScheduler(calibration, pk_report, omega=0.5), swaps, patch)
        qaoa_requests = []
        for omega in (0.0, 0.5, 1.0):
            qaoa_requests += _requests(
                XtalkScheduler(calibration, pk_report, omega=omega), qaoa,
                patch)
    finally:
        patch.undo()
    return swap_requests, qaoa_requests


def fresh(request: SolveRequest, **changes) -> SolveRequest:
    """``request`` with an unarmed budget of its own."""
    return dataclasses.replace(request, budget=Budget(), **changes)


# ----------------------------------------------------------------------
# node-level oracle
# ----------------------------------------------------------------------
def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def walk_nodes(model, limit=None) -> int:
    """Visit the search tree depth first (infeasible nodes are leaves),
    checking every node against a from-scratch solve; returns the count."""
    search = backends._Search(model)
    checked = 0

    def visit(prefix, node):
        nonlocal checked
        if limit is not None and checked >= limit:
            return
        checked += 1
        constraints = model.constraints_for(prefix)
        asap = difference_feasible(
            model.num_vars, sorted(constraints, key=backends._canonical))
        assert (node is None) == (asap is None)
        lp = lp_minimize(model, constraints)
        value = search.value(node)
        assert (value is None) == (lp is None)
        if node is None:
            return
        assert [v.hex() for v in node[0]] == [v.hex() for v in asap]
        if value is not None:
            assert same_bits(value, lp[0])
        if len(prefix) == len(model.decisions):
            return
        for k, arcs in enumerate(search.options[len(prefix)]):
            search.push(arcs)
            visit(prefix + [k], search.child(node, arcs))
            search.pop(arcs)

    visit([], search.root)
    # Pushes and pops nest: the graph is back to the base constraints.
    base = backends._Search(model)
    assert search._succ == base._succ and search._pred == base._pred
    return checked


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_node_matches_a_from_scratch_lp(seed):
    model, _ = random_search_model(seed)
    assert walk_nodes(model, limit=300) >= 1


def test_fig5_swap_nodes_match_a_from_scratch_lp(poughkeepsie_requests):
    swap_requests, _ = poughkeepsie_requests
    assert swap_requests
    for request, _ in swap_requests:
        assert request.model.decisions
        assert walk_nodes(request.model, limit=150) == 150


def test_positive_cycle_through_new_arcs_is_refuted():
    # x1 >= x0 + 2 in the base; the option adds x0 >= x1 - 1: a +1 cycle.
    model = ScheduleModel(3)
    model.add_constraint(DiffConstraint.after(1, 0, 2.0))
    model.add_constraint(DiffConstraint.after(2, 1, 1.0))
    model.add_decision(Decision("d", (
        Option("loose", (DiffConstraint(0, 1, -3.0),)),
        Option("cycle", (DiffConstraint(0, 1, -1.0),)),
    )))
    model.add_objective_term(2, 1.0)
    search = backends._Search(model)
    loose, cycle = search.options[0]
    search.push(cycle)
    assert search.child(search.root, cycle) is None
    search.pop(cycle)
    search.push(loose)
    child = search.child(search.root, loose)
    assert child is not None and search.value(child) == 3.0


# ----------------------------------------------------------------------
# search-level oracle
# ----------------------------------------------------------------------
def assert_same_solution(mine: Solution, reference: Solution) -> None:
    for name in ("assignment", "nodes_explored", "exact", "interrupt"):
        assert getattr(mine, name) == getattr(reference, name), name
    for name in ("objective", "constant_part", "linear_part"):
        assert same_bits(getattr(mine, name), getattr(reference, name)), name
    assert [t.hex() for t in mine.times] == [t.hex() for t in reference.times]


def _outcome(solve, request):
    try:
        return solve(request)
    except RuntimeError as error:
        return str(error)


def assert_same_outcome(mine, reference):
    assert type(mine) is type(reference)
    if isinstance(mine, str):
        assert mine == reference
    else:
        assert_same_solution(mine, reference)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_searches_match_the_from_scratch_searches(seed):
    model, cost = random_search_model(seed)
    request = SolveRequest(model, cost)
    assert_same_outcome(_outcome(ExactBnB().solve, fresh(request)),
                        _outcome(_reference_exact_bnb, fresh(request)))
    assert_same_outcome(_outcome(GreedyDive().solve, fresh(request)),
                        _outcome(_reference_greedy, fresh(request)))
    # The node cap and an expired budget cut both searches alike.
    capped = fresh(request, max_nodes=3)
    assert_same_outcome(_outcome(ExactBnB().solve, capped),
                        _outcome(_reference_exact_bnb, fresh(capped)))
    expired = dataclasses.replace(request, budget=_Expired(1.0))
    assert_same_outcome(
        _outcome(ExactBnB().solve, expired),
        _outcome(_reference_exact_bnb,
                 dataclasses.replace(request, budget=_Expired(1.0))))


def test_poughkeepsie_solves_match_the_from_scratch_searches(
        poughkeepsie_requests):
    swap_requests, qaoa_requests = poughkeepsie_requests
    assert len(qaoa_requests) == 3 * len(QAOA_REGIONS)
    searched = 0
    for request, backend in swap_requests + qaoa_requests:
        assert backend is None  # monolithic: exact within the limit
        mine = ExactBnB().solve(fresh(request))
        reference = _reference_exact_bnb(fresh(request))
        assert_same_solution(mine, reference)
        assert_same_solution(GreedyDive().solve(fresh(request)),
                             _reference_greedy(fresh(request)))
        searched += mine.nodes_explored > 1
    assert searched >= len(swap_requests)


def test_heavy_hex_windowed_solve_matches_the_from_scratch_search(
        monkeypatch):
    device = ibm_hummingbird_65q()
    scheduler = XtalkScheduler(device.calibration(0),
                               ground_truth_report(device, 0), omega=0.5)
    circuit = supremacy_circuit(device.coupling, qubits=range(65),
                                num_gates=250, seed=3)
    [(request, backend)] = _requests(scheduler, [circuit], monkeypatch)
    assert isinstance(backend, WindowedSolver)
    mine = backend.solve(fresh(request))
    monkeypatch.setattr(windows, "ExactBnB", _ReferenceExact)
    reference = backend.solve(fresh(request))
    assert mine.interrupt is None and mine.nodes_explored > 50
    assert_same_solution(mine, reference)

