"""Backend protocol tests: exact/greedy and windowed decomposition."""

import itertools
import pickle

import pytest

from repro.smt.backends import (
    ExactBnB,
    SolveRequest,
    lp_minimize,
)
from repro.smt.budget import Budget
from repro.smt.model import Decision, DiffConstraint, Option, ScheduleModel
from repro.smt.windows import WindowedSolver, plan_windows


def brute_force(model, partial_cost):
    best = float("inf")
    option_counts = [len(d.options) for d in model.decisions]
    for assignment in itertools.product(*(range(c) for c in option_counts)):
        lp = lp_minimize(model, model.constraints_for(list(assignment)))
        if lp is None:
            continue
        best = min(best, partial_cost(tuple(assignment)) + lp[0])
    return best


def chain_model(num_decisions=6, penalty=1.5):
    """A chain of gates with one serialize-or-overlap decision per link.

    Overlapping link ``k`` costs ``penalty * (k % 3)`` immediately, so
    optima are non-trivial and vary across decisions.
    """
    model = ScheduleModel(num_decisions + 1)
    for v in range(num_decisions):
        model.add_constraint(DiffConstraint(v + 1, v, 1.0))
    for k in range(num_decisions):
        model.add_decision(Decision(f"d{k}", (
            Option("serialize", (DiffConstraint(k + 1, k, 3.0),)),
            Option("overlap", ()),
        ), payload=k))
    model.add_objective_term(num_decisions, 1.0)

    def cost(assignment):
        return sum(penalty * (k % 3)
                   for k, choice in enumerate(assignment) if choice == 1)

    return model, cost


class TestBackendContract:
    def test_exact_matches_brute_force(self):
        model, cost = chain_model(5)
        solution = ExactBnB().solve(SolveRequest(model, cost))
        assert solution.exact
        assert solution.objective == pytest.approx(brute_force(model, cost))

    def test_request_pickles(self):
        model, _ = chain_model(3)
        request = SolveRequest(model, budget=Budget(5.0))
        clone = pickle.loads(pickle.dumps(request))
        assert len(clone.model.decisions) == 3
        assert clone.budget.seconds == 5.0


class TestPlanWindows:
    def test_contiguous_cover_with_cap(self):
        model, _ = chain_model(10)
        plan = plan_windows(model, cap=4)
        assert plan.windows[0][0] == 0
        assert plan.windows[-1][1] == 10
        for (a_start, a_stop), (b_start, b_stop) in zip(
                plan.windows, plan.windows[1:]):
            assert a_stop == b_start
        assert plan.max_window <= 4

    def test_single_window_when_cap_covers_all(self):
        model, _ = chain_model(5)
        plan = plan_windows(model, cap=50)
        assert plan.windows == ((0, 5),)

    def test_deterministic(self):
        model, _ = chain_model(12)
        assert plan_windows(model, cap=5) == plan_windows(model, cap=5)

    def test_disjoint_boundary_preferred(self):
        # Two independent clusters of decisions over disjoint variables;
        # the planner should cut between them rather than mid-cluster.
        model = ScheduleModel(4)
        for k, (a, b) in enumerate([(0, 1), (0, 1), (2, 3), (2, 3)]):
            model.add_decision(Decision(f"d{k}", (
                Option("ab", (DiffConstraint(b, a, 1.0),)),
                Option("free", ()),
            )))
        plan = plan_windows(model, cap=3)
        assert (0, 2) in plan.windows  # slid back from 3 to the seam at 2

    def test_cap_validated(self):
        model, _ = chain_model(3)
        with pytest.raises(ValueError, match="cap"):
            plan_windows(model, cap=0)


class TestWindowedSolver:
    def test_single_window_is_exact(self):
        model, cost = chain_model(5)
        solution = WindowedSolver(cap=20).solve(SolveRequest(model, cost))
        assert solution.exact
        assert solution.objective == pytest.approx(brute_force(model, cost))

    def test_small_windows_within_5pct_of_exact(self):
        model, cost = chain_model(8)
        exact = brute_force(model, cost)
        for cap in (1, 2, 3):
            win = WindowedSolver(cap=cap).solve(SolveRequest(model, cost))
            assert not win.exact or cap >= 8
            assert abs(win.objective - exact) <= 0.05 * abs(exact) + 1e-9

    def test_budget_exhaustion_interrupts_but_completes(self):
        model, cost = chain_model(8)
        budget = Budget(0.0)
        solution = WindowedSolver(cap=2).solve(
            SolveRequest(model, cost, budget=budget))
        assert solution.interrupt == "deadline"
        assert len(solution.assignment) == 8
        assert not budget.armed  # windowed owner disarmed

    def test_deterministic(self):
        model, cost = chain_model(9)
        a = WindowedSolver(cap=3).solve(SolveRequest(model, cost))
        b = WindowedSolver(cap=3).solve(SolveRequest(model, cost))
        assert a.assignment == b.assignment
        assert a.objective == b.objective
