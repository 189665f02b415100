"""``lp_minimize`` against scipy's ``linprog`` as an oracle.

The solver itself is pure Python; scipy appears here only as the
reference.  On random difference-constraint models shaped like the
scheduler's (dependency chains, containment equalities, lower bounds,
``±`` lifetime coefficients), the exact solve must agree with the
oracle's optimum, fail exactly where it fails, and return the
component-wise earliest optimal start times.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.core.scheduling.xtalk import XtalkScheduler
from repro.smt import backends
from repro.smt.backends import lp_minimize
from repro.smt.feasibility import difference_feasible
from repro.smt.model import DiffConstraint, ScheduleModel
from repro.workloads.qaoa import QAOA_REGIONS, qaoa_on_region
from repro.workloads.swap import (
    crosstalk_affected_endpoints,
    crosstalk_route,
    swap_benchmark,
)

TOL = 1e-9


def linprog_minimize(model, constraints):
    """The oracle: ``min c.x`` over the same constraints via HiGHS."""
    n = model.num_vars
    c = np.zeros(n)
    for var, coeff in model.objective.items():
        c[var] = coeff
    lower = np.zeros(n)
    rows, rhs = [], []
    for con in constraints:
        if con.var_lo is None:
            lower[con.var_hi] = max(lower[con.var_hi], con.offset)
            continue
        row = np.zeros(n)
        row[con.var_hi] = -1.0
        row[con.var_lo] = 1.0
        rows.append(row)
        rhs.append(-con.offset)
    result = optimize.linprog(
        c,
        A_ub=np.vstack(rows) if rows else None,
        b_ub=np.asarray(rhs) if rows else None,
        bounds=[(lo, None) for lo in lower],
        method="highs",
    )
    if not result.success:
        return None
    return float(result.fun) + model.objective_offset, result.x


def random_model(seed):
    """A random model with the scheduler's constraint and objective shapes.

    Forward arcs are dependencies; backward arcs are serialization orders
    (they may close a positive cycle, making the model infeasible); each
    "qubit" orders its first variable before its last and puts ``+w`` on
    the last and ``-w`` on the first.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    model = ScheduleModel(n)
    constraints = []
    for _ in range(int(rng.integers(n - 1, 2 * n + 1))):
        lo, hi = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        constraints.append(DiffConstraint.after(hi, lo, float(rng.uniform(0, 5))))
    for _ in range(int(rng.integers(0, 3))):
        lo, hi = (int(v) for v in rng.choice(n, 2, replace=False))
        constraints.append(DiffConstraint.after(hi, lo, float(rng.uniform(-30, 1))))
    if rng.random() < 0.5:
        # Containment: the shorter gate starts inside the longer one.
        short, long_ = (int(v) for v in rng.choice(n, 2, replace=False))
        gap = float(rng.choice([0.0, rng.uniform(0, 3)]))
        constraints.append(DiffConstraint.after(short, long_, 0.0))
        constraints.append(DiffConstraint(long_, short, -gap))
    for _ in range(int(rng.integers(0, 3))):
        constraints.append(DiffConstraint.at_least(
            int(rng.integers(n)), float(rng.uniform(0, 8))))
    for _ in range(int(rng.integers(1, 4))):
        first, last = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        # The qubit's own gate chain orders its first and last gates.
        constraints.append(DiffConstraint.after(last, first, float(rng.uniform(0, 5))))
        weight = float(rng.uniform(0.1, 2.0))
        model.add_objective_term(last, weight)
        model.add_objective_term(first, -weight)
    if rng.random() < 0.3:
        # Sum of coefficients > 0, as when only a final readout is costed.
        model.add_objective_term(int(rng.integers(n)), float(rng.uniform(0.1, 1)))
    if rng.random() < 0.1:
        # Sum < 0: shifting every start later lowers the objective.
        model.add_objective_term(int(rng.integers(n)), -float(rng.uniform(0.1, 1)))
    model.objective_offset = float(rng.uniform(0, 2))
    return model, constraints


def assert_matches_oracle(model, constraints):
    mine = lp_minimize(model, constraints)
    reference = linprog_minimize(model, constraints)
    assert (mine is None) == (reference is None)
    if mine is None:
        return
    value, x = mine
    ref_value, ref_x = reference
    assert abs(value - ref_value) <= TOL * max(1.0, abs(ref_value))
    for con in constraints:
        lo = 0.0 if con.var_lo is None else x[con.var_lo]
        assert x[con.var_hi] - lo >= con.offset - TOL
    assert np.all(x >= -TOL)
    # The earliest point of the optimal face lies below every optimum.
    assert np.all(x <= ref_x + TOL)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_models_match_linprog(seed):
    assert_matches_oracle(*random_model(seed))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_constraint_order_does_not_change_times(seed):
    model, constraints = random_model(seed)
    shuffled = list(constraints)
    np.random.default_rng(seed).shuffle(shuffled)
    first = lp_minimize(model, constraints)
    second = lp_minimize(model, shuffled)
    assert (first is None) == (second is None)
    if first is not None:
        assert first[0] == second[0]
        assert first[1].tobytes() == second[1].tobytes()


def floyd_warshall(n, arcs):
    """Longest paths between all pairs, or None on a positive cycle."""
    best = np.full((n, n), -np.inf)
    np.fill_diagonal(best, 0.0)
    for lo, hi, w in arcs:
        best[lo, hi] = max(best[lo, hi], w)
    for k in range(n):
        best = np.maximum(best, best[:, [k]] + best[[k], :])
    if np.any(np.diag(best) > TOL):
        return None
    return best


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_longest_paths_match_floyd_warshall(seed):
    # Arcs in random order and direction, so the relaxation needs several
    # passes and sometimes meets a positive cycle late.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    constraints = [
        DiffConstraint(int(hi), int(lo), float(rng.uniform(-10, 4)))
        for lo, hi in (rng.choice(n, 2, replace=False)
                       for _ in range(int(rng.integers(1, 3 * n))))
    ]
    lower = {int(v): float(rng.uniform(0, 6)) for v in rng.choice(n, 2)}
    constraints += [DiffConstraint.at_least(v, b) for v, b in lower.items()]
    extra = [(0, n - 1, float(rng.uniform(-5, 5)))] if rng.random() < 0.5 else []
    arcs = [(c.var_lo, c.var_hi, c.offset) for c in constraints
            if c.var_lo is not None] + extra
    best = floyd_warshall(n, arcs)

    asap = difference_feasible(n, constraints, extra=extra)
    sink = int(rng.integers(n))
    initial = [-np.inf] * n
    initial[sink] = 0.0
    to_sink = difference_feasible(n, constraints, initial, reverse=True,
                                  extra=extra)
    if best is None:
        # The origin reaches every variable, so the forward pass finds
        # every positive cycle; a reverse pass only those it reaches.
        assert asap is None
        return
    start = np.array([lower.get(v, 0.0) for v in range(n)])
    assert np.allclose(asap, np.max(start[:, None] + best, axis=0),
                       rtol=0, atol=TOL)
    assert np.allclose(to_sink, best[:, sink], rtol=0, atol=TOL)


class TestCases:
    def test_lower_bounds_and_chain(self):
        # Sum of coefficients > 0: the origin supplies it; x2 is pushed
        # to its ASAP time and x0 starts at its lower bound.
        model = ScheduleModel(3)
        constraints = [DiffConstraint.after(1, 0, 2.0),
                       DiffConstraint.after(2, 1, 3.0),
                       DiffConstraint.at_least(0, 4.0)]
        model.add_objective_term(2, 1.0)
        value, x = lp_minimize(model, constraints)
        assert value == pytest.approx(9.0)
        assert list(x) == [4.0, 6.0, 9.0]
        assert_matches_oracle(model, constraints)

    def test_lifetime_pins_first_gate_late(self):
        # One qubit: first gate x0, last x2; x1 is an unrelated gate that
        # bounds the last one.  Minimal lifetime starts x0 late; the
        # earliest optimum keeps the free x1 at 0.
        model = ScheduleModel(3)
        constraints = [DiffConstraint.after(2, 0, 1.0),
                       DiffConstraint.after(2, 1, 10.0)]
        model.add_objective_term(2, 1.0)
        model.add_objective_term(0, -1.0)
        value, x = lp_minimize(model, constraints)
        assert value == pytest.approx(1.0)
        assert list(x) == [9.0, 0.0, 10.0]
        assert_matches_oracle(model, constraints)

    def test_equality_two_cycle(self):
        model = ScheduleModel(3)
        constraints = [*DiffConstraint.equal(0, 1),
                       DiffConstraint.after(2, 0, 5.0),
                       DiffConstraint.after(1, 2, -7.0)]
        model.add_objective_term(2, 1.0)
        model.add_objective_term(1, -1.0)
        value, x = lp_minimize(model, constraints)
        assert value == pytest.approx(5.0)
        assert x[0] == x[1]
        assert_matches_oracle(model, constraints)

    def test_unbounded_without_constraints(self):
        model = ScheduleModel(1)
        model.add_objective_term(0, -1.0)
        assert lp_minimize(model, []) is None
        assert linprog_minimize(model, []) is None

    def test_source_reaching_no_sink_is_unbounded(self):
        # x0 wants to start late and nothing after it holds it back.
        model = ScheduleModel(3)
        constraints = [DiffConstraint.after(2, 1, 1.0)]
        model.add_objective_term(2, 1.0)
        model.add_objective_term(0, -1.0)
        assert lp_minimize(model, constraints) is None
        assert linprog_minimize(model, constraints) is None

    def test_infeasible_cycle(self):
        model = ScheduleModel(3)
        constraints = [DiffConstraint.after(1, 0, 2.0),
                       DiffConstraint.after(2, 1, 2.0),
                       DiffConstraint.after(0, 2, -3.0)]
        model.add_objective_term(2, 1.0)
        model.add_objective_term(0, -1.0)
        assert lp_minimize(model, constraints) is None
        assert linprog_minimize(model, constraints) is None

    def test_several_sinks_share_sources(self):
        # Two qubits crossing at a shared gate: the transportation
        # problem has two sources and two sinks.
        model = ScheduleModel(5)
        constraints = [DiffConstraint.after(2, 0, 1.0),
                       DiffConstraint.after(2, 1, 4.0),
                       DiffConstraint.after(3, 2, 2.0),
                       DiffConstraint.after(4, 2, 3.0)]
        for first, last, weight in ((0, 3, 1.0), (1, 4, 0.5)):
            model.add_objective_term(last, weight)
            model.add_objective_term(first, -weight)
        assert_matches_oracle(model, constraints)


def identity_circuits(device, report):
    """Two Fig 5 SWAP circuits and one QAOA region on Poughkeepsie."""
    coupling = device.coupling
    high = report.high_pairs()
    circuits = []
    for source, dest in crosstalk_affected_endpoints(coupling, high)[:2]:
        route = crosstalk_route(coupling, source, dest, high)
        circuits.append(swap_benchmark(coupling, source, dest, path=route).circuit)
    circuits.append(qaoa_on_region(coupling, QAOA_REGIONS[0], seed=0))
    return circuits


def test_schedules_match_linprog_backed_solve(poughkeepsie, pk_report,
                                              monkeypatch):
    # At omega = 0.5 every branch-and-bound node solves a lifetime LP (at
    # omega = 1 the objective is zero and none is solved).
    scheduler = XtalkScheduler(poughkeepsie.calibration(), pk_report, omega=0.5)
    circuits = identity_circuits(poughkeepsie, pk_report)
    exact = [scheduler.schedule(circuit) for circuit in circuits]
    monkeypatch.setattr(backends, "lp_minimize", linprog_minimize)
    oracle = [scheduler.schedule(circuit) for circuit in circuits]
    assert all(result.candidate_pairs for result in exact[:2])
    for mine, reference in zip(exact, oracle):
        assert mine.option_labels == reference.option_labels
        assert mine.solution.objective == pytest.approx(
            reference.solution.objective, rel=1e-12)
