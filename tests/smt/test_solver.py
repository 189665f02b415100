"""Tests for the optimizing solver, including brute-force cross-checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.backends import lp_minimize
from repro.smt.budget import Budget
from repro.smt.feasibility import difference_feasible
from repro.smt.model import Decision, DiffConstraint, Option, ScheduleModel
from repro.smt.solver import OptimizingSolver


def brute_force(model: ScheduleModel, partial_cost) -> float:
    """Exhaustive reference optimum (LP via the backends' ``lp_minimize``)."""
    best = float("inf")
    option_counts = [len(d.options) for d in model.decisions]
    for assignment in itertools.product(*(range(c) for c in option_counts)):
        lp = lp_minimize(model, model.constraints_for(list(assignment)))
        if lp is None:
            continue
        best = min(best, partial_cost(tuple(assignment)) + lp[0])
    return best


class TestLpMinimize:
    def test_zero_objective_uses_asap(self):
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 10.0))
        value, x = lp_minimize(model, model.base_constraints)
        assert value == 0.0
        assert x[1] - x[0] >= 10.0

    def test_linear_objective(self):
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 10.0))
        model.add_objective_term(1, 1.0)  # minimize x1
        value, x = lp_minimize(model, model.base_constraints)
        assert value == pytest.approx(10.0)

    def test_objective_offset_included(self):
        model = ScheduleModel(1)
        model.objective_offset = 5.0
        model.add_objective_term(0, 1.0)
        value, _ = lp_minimize(model, [])
        assert value == pytest.approx(5.0)

    def test_infeasible_returns_none(self):
        model = ScheduleModel(2)
        constraints = [DiffConstraint(1, 0, 5.0), DiffConstraint(0, 1, 5.0)]
        assert lp_minimize(model, constraints) is None

    def test_negative_coefficient_bounded_by_structure(self):
        # minimize x1 - x0 subject to x1 >= x0 + 10: optimum 10, not -inf.
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 10.0))
        model.add_objective_term(1, 1.0)
        model.add_objective_term(0, -1.0)
        value, _ = lp_minimize(model, model.base_constraints)
        assert value == pytest.approx(10.0)


def two_gate_model(conditional_cost: float):
    """Two unit-duration gates that may overlap (extra cost) or serialize."""
    model = ScheduleModel(3)  # g0, g1, readout
    model.add_constraint(DiffConstraint(2, 0, 1.0))
    model.add_constraint(DiffConstraint(2, 1, 1.0))
    model.add_decision(Decision("pair", (
        Option("g0_first", (DiffConstraint(1, 0, 1.0),)),
        Option("g1_first", (DiffConstraint(0, 1, 1.0),)),
        Option("overlap", tuple(DiffConstraint.equal(0, 1))),
    )))
    # decoherence: minimize readout minus starts
    model.add_objective_term(2, 2.0)
    model.add_objective_term(0, -1.0)
    model.add_objective_term(1, -1.0)

    def cost(assignment):
        if assignment and assignment[0] == 2:
            return conditional_cost
        return 0.0

    return model, cost


class TestExactSolve:
    def test_prefers_overlap_when_crosstalk_cheap(self):
        model, cost = two_gate_model(conditional_cost=0.1)
        solution = OptimizingSolver(model, cost).solve()
        assert solution.exact
        assert model.decisions[0].options[solution.assignment[0]].label == "overlap"

    def test_prefers_serialization_when_crosstalk_expensive(self):
        model, cost = two_gate_model(conditional_cost=10.0)
        solution = OptimizingSolver(model, cost).solve()
        label = model.decisions[0].options[solution.assignment[0]].label
        assert label in ("g0_first", "g1_first")

    def test_matches_brute_force(self):
        for c in (0.0, 0.5, 1.0, 2.0, 10.0):
            model, cost = two_gate_model(conditional_cost=c)
            solution = OptimizingSolver(model, cost).solve()
            assert solution.objective == pytest.approx(brute_force(model, cost))

    def test_solution_times_feasible(self):
        model, cost = two_gate_model(conditional_cost=10.0)
        solution = OptimizingSolver(model, cost).solve()
        for con in model.constraints_for(solution.assignment):
            lo = 0.0 if con.var_lo is None else solution.times[con.var_lo]
            assert solution.times[con.var_hi] - lo >= con.offset - 1e-6

    def test_no_decisions(self):
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 3.0))
        solution = OptimizingSolver(model).solve()
        assert solution.assignment == ()
        assert solution.exact

    def test_infeasible_option_skipped(self):
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 5.0))
        model.add_decision(Decision("d", (
            Option("impossible", (DiffConstraint(0, 1, 5.0),)),
            Option("fine", ()),
        )))
        solution = OptimizingSolver(model).solve()
        assert solution.assignment == (1,)

    def test_option_labels_helper(self):
        model, cost = two_gate_model(conditional_cost=0.0)
        solution = OptimizingSolver(model, cost).solve()
        labels = solution.option_labels(model)
        assert len(labels) == 1


class TestGreedy:
    def test_greedy_on_small_model_reasonable(self):
        model, cost = two_gate_model(conditional_cost=10.0)
        solution = OptimizingSolver(model, cost).solve_greedy()
        label = model.decisions[0].options[solution.assignment[0]].label
        assert label in ("g0_first", "g1_first")

    def test_greedy_engages_beyond_limit(self):
        model, cost = two_gate_model(conditional_cost=10.0)
        solver = OptimizingSolver(model, cost, exact_decision_limit=0)
        solution = solver.solve()
        assert not solution.exact or len(model.decisions) == 0

    def test_greedy_raises_when_stuck(self):
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 5.0))
        model.add_decision(Decision("d", (
            Option("impossible", (DiffConstraint(0, 1, 5.0),)),
        )))
        with pytest.raises(RuntimeError, match="no feasible option"):
            OptimizingSolver(model).solve_greedy()


class TestResourceLimits:
    def _many_decision_model(self, count=8):
        """A model whose bounds are loose: the cost only materializes at
        full assignments, so exact search must visit the whole tree."""
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 1.0))
        for k in range(count):
            model.add_decision(Decision(f"d{k}", (Option("a"), Option("b"))))
        model.add_objective_term(1, 1.0)

        def cost(assignment):
            if len(assignment) < count:
                return 0.0  # monotone: jumps only at the leaves
            return float(sum(1 for c in assignment if c == 0))

        return model, cost

    def test_max_nodes_marks_inexact(self):
        model, cost = self._many_decision_model()
        solver = OptimizingSolver(model, cost, max_nodes=3)
        solution = solver.solve_exact()
        assert not solution.exact
        # still returns a feasible answer (the greedy incumbent at worst)
        assert solution.assignment

    def test_time_limit_respected(self):
        model, cost = self._many_decision_model()
        solver = OptimizingSolver(model, cost, budget=Budget(1e-6))
        solution = solver.solve_exact()
        assert not solution.exact

    def test_unlimited_solve_is_exact(self):
        model, cost = self._many_decision_model()
        solution = OptimizingSolver(model, cost).solve_exact()
        assert solution.exact
        # all-b is optimal: no penalty, minimal constraint load
        assert all(c == 1 for c in solution.assignment)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_exact_matches_brute_force_on_random_models(seed):
    rng = np.random.default_rng(seed)
    num_vars = int(rng.integers(3, 6))
    model = ScheduleModel(num_vars)
    # random DAG-ish base constraints
    for _ in range(num_vars):
        j = int(rng.integers(1, num_vars))
        i = int(rng.integers(0, j))
        model.add_constraint(DiffConstraint(j, i, float(rng.uniform(1, 5))))
    # random decisions over variable pairs
    num_decisions = int(rng.integers(1, 4))
    for k in range(num_decisions):
        a, b = rng.choice(num_vars, 2, replace=False)
        a, b = int(a), int(b)
        model.add_decision(Decision(f"d{k}", (
            Option("ab", (DiffConstraint(b, a, float(rng.uniform(0, 3))),)),
            Option("ba", (DiffConstraint(a, b, float(rng.uniform(0, 3))),)),
            Option("free", ()),
        )))
    # non-negative coefficients keep the LP bounded for any constraint set
    for v in range(num_vars):
        model.add_objective_term(v, float(rng.uniform(0, 2)))

    penalties = rng.uniform(0, 2, size=num_decisions)

    def cost(assignment):
        return float(sum(penalties[k] for k, c in enumerate(assignment) if c == 2))

    solver = OptimizingSolver(model, cost)
    solution = solver.solve_exact()
    reference = brute_force(model, cost)
    if solution.exact and reference < float("inf"):
        assert solution.objective == pytest.approx(reference, abs=1e-6)
