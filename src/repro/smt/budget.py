"""The solver's single owned time budget.

A nested solve (the exact search seeding itself with a greedy incumbent,
or a windowed solve running one exact search per window) must not re-arm
an already-running clock and silently extend the budget, so
:class:`Budget` owns the clock.
One instance is created per logical solve (the scheduler builds it from
``max_solve_seconds``; a standalone ``OptimizingSolver`` owns an unlimited
one unless handed ``budget=``), every layer shares that instance, and
:meth:`arm` is first-caller-wins: arming an armed budget is a no-op, so
nested layers can never extend it.  An unlimited budget (``seconds=None``)
never arms and never expires.

Deadlines are ``time.monotonic``-based.
"""

from __future__ import annotations

import time
from typing import Optional


class Budget:
    """A solve-time budget with first-caller-wins arming.

    ``Budget(None)`` is unlimited: :meth:`arm` returns False and
    :meth:`expired` is always False, so budget checks cost one attribute
    read on the unlimited path.
    """

    __slots__ = ("seconds", "_deadline")

    def __init__(self, seconds: Optional[float] = None):
        if seconds is not None and seconds < 0.0:
            raise ValueError("budget seconds must be >= 0")
        self.seconds = seconds
        self._deadline: Optional[float] = None

    def __repr__(self) -> str:
        state = "unlimited" if self.seconds is None else (
            "armed" if self._deadline is not None else "unarmed"
        )
        return f"Budget(seconds={self.seconds}, {state})"

    # ------------------------------------------------------------------
    @property
    def limited(self) -> bool:
        return self.seconds is not None

    @property
    def armed(self) -> bool:
        return self._deadline is not None

    def arm(self) -> bool:
        """Start the clock if limited and not already running.

        Returns True when *this call* armed it — the caller then owns
        :meth:`disarm`.  Nested callers get False and must leave the
        clock alone, which is exactly what makes double-arming harmless.
        """
        if self.seconds is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.seconds
            return True
        return False

    def disarm(self) -> None:
        """Stop the clock (the owner's cleanup; idempotent)."""
        self._deadline = None

    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    def remaining(self) -> Optional[float]:
        """Seconds left on an armed clock; None when unlimited/unarmed."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.seconds, self._deadline)

    def __setstate__(self, state):
        self.seconds, self._deadline = state
