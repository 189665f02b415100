"""A small optimizing solver for scheduling-shaped SMT problems.

The paper formulates gate scheduling as an SMT optimization and solves it
with Z3 (Section 7).  Z3 is unavailable offline, so this package implements
an exact solver for precisely the fragment the formulation uses:

* real **variables** (gate start times) constrained by **difference
  constraints** ``x - y >= c`` (data dependencies, serialization orders,
  containment, readout simultaneity);
* categorical **decisions** whose options activate different constraint
  sets (the overlap-indicator structure of constraints (2)–(8) and the
  IBMQ full-containment disjunction (11)–(13));
* an objective that splits into a decision-dependent constant part (the
  ``ω Σ log g.ε`` gate-error terms, supplied as a monotone partial-cost
  callback) plus a linear function of the reals (the decoherence lifetime
  terms), minimized by LP once decisions are fixed.

:class:`~repro.smt.solver.OptimizingSolver` performs DPLL-style
branch-and-bound over the decisions with an incremental Bellman–Ford
theory check and LP-based bounding — exact on paper-scale instances — and
a greedy dive mode for the large supremacy-circuit scalability study.
"""

from repro.smt.model import (
    DiffConstraint,
    Option,
    Decision,
    ScheduleModel,
)
from repro.smt.feasibility import difference_feasible
from repro.smt.budget import Budget
from repro.smt.backends import (
    ExactBnB,
    GreedyDive,
    SolveRequest,
    SolverBackend,
)
from repro.smt.solver import OptimizingSolver, Solution
from repro.smt.windows import WindowedSolver, WindowPlan, plan_windows

__all__ = [
    "DiffConstraint",
    "Option",
    "Decision",
    "ScheduleModel",
    "difference_feasible",
    "Budget",
    "SolverBackend",
    "SolveRequest",
    "ExactBnB",
    "GreedyDive",
    "WindowedSolver",
    "WindowPlan",
    "plan_windows",
    "OptimizingSolver",
    "Solution",
]
