"""Budget semantics: one owned clock, first-caller-wins arming."""

import pickle
import time

import pytest

from repro.smt.budget import Budget
from repro.smt.solver import OptimizingSolver
from repro.smt.model import Decision, DiffConstraint, Option, ScheduleModel


class TestBudgetBasics:
    def test_unlimited_never_arms_never_expires(self):
        budget = Budget(None)
        assert not budget.limited
        assert budget.arm() is False
        assert not budget.armed
        assert not budget.expired()
        assert budget.remaining() is None

    def test_arm_and_expire(self):
        budget = Budget(0.0)
        assert budget.limited
        assert budget.arm() is True
        assert budget.armed
        time.sleep(0.002)
        assert budget.expired()
        assert budget.remaining() == 0.0

    def test_disarm_idempotent(self):
        budget = Budget(10.0)
        budget.arm()
        budget.disarm()
        assert not budget.armed
        budget.disarm()
        assert not budget.expired()

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Budget(-1.0)

    def test_repr_states(self):
        assert "unlimited" in repr(Budget(None))
        budget = Budget(5.0)
        assert "unarmed" in repr(budget)
        budget.arm()
        assert "armed" in repr(budget)


class TestNestedArming:
    """The dual-arming seam: nested layers can never extend the clock."""

    def test_second_arm_is_noop(self):
        budget = Budget(10.0)
        assert budget.arm() is True
        deadline = budget._deadline
        time.sleep(0.005)
        assert budget.arm() is False
        assert budget._deadline == deadline  # unchanged, not extended

    def test_nested_owner_does_not_disarm(self):
        """The pattern every backend uses: only the arming caller disarms."""
        budget = Budget(10.0)
        outer = budget.arm()
        inner = budget.arm()
        assert outer and not inner
        if inner:  # pragma: no cover - the regression would take this path
            budget.disarm()
        assert budget.armed  # inner layer left the clock running
        if outer:
            budget.disarm()
        assert not budget.armed

    def test_expired_budget_stays_expired_through_nested_arm(self):
        """Regression for the historical seam: an exact solve whose greedy
        incumbent re-armed the deadline would get a fresh clock.  With a
        shared Budget the nested arm is a no-op and the deadline holds."""
        budget = Budget(0.0)
        budget.arm()
        time.sleep(0.002)
        assert budget.expired()
        budget.arm()  # the nested layer trying to arm again
        assert budget.expired()  # still expired — not extended

    def test_exact_solve_shares_clock_with_incumbent(self):
        """End to end: an exhausted budget interrupts both the greedy
        incumbent and the exact search; the solve stays interrupted even
        though two layers (exact + greedy) both tried to arm."""
        model = ScheduleModel(2)
        model.add_constraint(DiffConstraint(1, 0, 1.0))
        for k in range(6):
            model.add_decision(Decision(f"d{k}", (Option("a"), Option("b"))))
        model.add_objective_term(1, 1.0)
        budget = Budget(0.0)
        solver = OptimizingSolver(model, budget=budget)
        solution = solver.solve_exact()
        assert solution.interrupt == "deadline"
        assert not solution.exact
        assert len(solution.assignment) == 6  # still a complete assignment
        assert not budget.armed  # the owner disarmed on the way out


class TestBudgetPickling:
    def test_roundtrip_preserves_deadline(self):
        budget = Budget(30.0)
        budget.arm()
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.seconds == 30.0
        assert clone.armed
        # Monotonic deadlines are system-wide on Linux: the clone's
        # remaining time tracks the original's.
        assert clone.remaining() == pytest.approx(
            budget.remaining(), abs=0.5)

    def test_unarmed_roundtrip(self):
        clone = pickle.loads(pickle.dumps(Budget(5.0)))
        assert clone.seconds == 5.0
        assert not clone.armed

