"""Longest paths over difference constraints via Bellman–Ford.

A system of constraints ``x - y >= c`` is feasible iff the standard
constraint graph (an arc ``y -> x`` of weight ``c`` per constraint) has no
positive cycle.  The longest-path distances from a virtual origin (every
``x >= 0``) are then the component-wise smallest solution: the ASAP
schedule, which the solver uses directly when a subproblem's objective is
all zero.  The LP solve in :mod:`repro.smt.backends` runs the same
relaxation backward from each objective sink (for path lengths) and with
extra arcs (for the earliest optimal start times).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.smt.model import DiffConstraint

#: A relaxation must gain more than this to count.  It absorbs float
#: rounding around zero-weight cycles (equalities, tight optimal pairs).
RELAX_TOL = 1e-9

#: ``(var_lo, var_hi, offset)``: the arc of ``x_hi - x_lo >= offset``.
Arc = Tuple[int, int, float]


def difference_feasible(num_vars: int,
                        constraints: Iterable[DiffConstraint],
                        initial: Optional[Sequence[float]] = None,
                        reverse: bool = False,
                        extra: Iterable[Arc] = ()) -> Optional[List[float]]:
    """Longest-path distances over the constraint graph, or None when a
    positive cycle (the constraints are infeasible) is reachable from the
    starting distances — with the default start, any positive cycle.

    With the defaults this is the component-wise *smallest* solution with
    all vars >= 0 — the ASAP schedule of the partial ordering.

    ``initial`` replaces the all-zero starting distances (``-inf`` marks a
    variable as not yet reached).  ``reverse`` relaxes every arc backward,
    so each distance becomes the longest path *from* that variable to the
    ones ``initial`` seeds; lower bounds (arcs out of the origin) do not
    apply then.  ``extra`` adds arcs beyond ``constraints``.
    """
    dist = [0.0] * num_vars if initial is None else list(initial)
    arcs: List[Arc] = []
    for c in constraints:
        if c.var_lo is not None:
            arcs.append((c.var_lo, c.var_hi, c.offset))
        elif not reverse and c.offset > dist[c.var_hi]:
            # x >= offset: an arc from the origin, folded into the start.
            dist[c.var_hi] = c.offset
    arcs.extend(extra)
    if reverse:
        arcs = [(hi, lo, w) for lo, hi, w in reversed(arcs)]

    # Bellman-Ford longest path relaxation.  A pass carries a longest path
    # across every arc that follows its predecessor arc in list order, so
    # a path needs one more pass only at an arc listed before some arc
    # into its tail.  A simple path crosses each such arc at most once:
    # relaxing beyond that many passes (+1) means a positive cycle.
    last_into = {dst: pos for pos, (_, dst, _) in enumerate(arcs)}
    setbacks = len([pos for pos, (src, _, _) in enumerate(arcs)
                    if last_into.get(src, -1) > pos])
    for iteration in range(min(num_vars, setbacks + 1)):
        changed = False
        for src, dst, w in arcs:
            cand = dist[src] + w
            if cand > dist[dst] + RELAX_TOL:
                dist[dst] = cand
                changed = True
        if not changed:
            return dist
    # One extra pass: any further relaxation means a positive cycle.
    for src, dst, w in arcs:
        if dist[src] + w > dist[dst] + RELAX_TOL:
            return None
    return dist
