"""Exponential-decay fitting for RB survival curves.

Survival data ``(m, p_m)`` is fit to the standard RB model
``p_m = A * f**m + B``; the error per Clifford is
``r = (1 - f) * (2**n - 1) / 2**n`` and the CNOT error rate follows by
dividing by the average CNOTs per Clifford (1.5 for the exact 2-qubit
group), exactly the procedure of Section 8.1.

The fit is an exact bounded least-squares fit over ``A, f, B ∈ [0, 1]``.
For a fixed decay ``f`` the model is linear in ``(A, B)``, so the best
``(A, B)`` in the box has a closed form and the sum of squares becomes a
function of ``f`` alone, the *profile* ``P(f)``.  One vectorised
evaluation of the profile on a fixed grid over ``[0, 1]`` brackets its
global minimum for every curve of an experiment at once, and a bracketed
root-find on ``dP/df`` refines each curve's decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

#: Decays at which the profile is evaluated to bracket its global minimum:
#: denser toward ``f = 1``, where RB decays sit, down to a last interval
#: of ``(1 - 2.3e-10, 1)``, too narrow to hide a better fit.
_GRID = 1.0 - np.linspace(1.0, 0.0, 257) ** 4
#: Absolute tolerance of the refined decay, and the most refinement steps.
_DECAY_XTOL = 1e-12
_REFINE_STEPS = 100
#: A best amplitude at or below this leaves the decay unidentifiable: the
#: curve is flat and is reported with ``decay = 1``.
_FLAT_AMPLITUDE = 1e-12


@dataclass(frozen=True)
class RBFit:
    """Fitted RB decay parameters and derived error rates."""

    amplitude: float
    decay: float
    offset: float
    num_qubits: int

    @property
    def error_per_clifford(self) -> float:
        dim = 2 ** self.num_qubits
        return (1.0 - self.decay) * (dim - 1) / dim

    def error_per_cnot(self, cnots_per_clifford: float = 1.5) -> float:
        return error_per_clifford_to_cnot(self.error_per_clifford, cnots_per_clifford)

    def survival(self, length: float) -> float:
        return self.amplitude * self.decay ** length + self.offset


def fit_rb_decay(lengths: Sequence[int], survivals: Sequence[float],
                 num_qubits: int = 2) -> RBFit:
    """Least-squares fit of ``A * f**m + B`` with ``A, f, B ∈ [0, 1]``.

    The one-curve case of :func:`fit_rb_decays`.
    """
    return fit_rb_decays(lengths, [survivals], [num_qubits])[0]


def fit_rb_decays(lengths: Sequence[int],
                  survivals: Sequence[Sequence[float]],
                  num_qubits: Sequence[int]) -> List[RBFit]:
    """Fit ``A * f**m + B`` to every survival curve sampled at ``lengths``.

    ``survivals`` holds one curve per row and ``num_qubits`` one qubit
    count per curve.  Each fit minimizes the sum of squares over
    ``A, f, B ∈ [0, 1]``, searching the decay globally (module
    docstring), and is bitwise the same whichever curves it is fitted
    with.  A curve whose best amplitude is zero (flat, or rising with
    length) leaves the decay unidentifiable and reports ``decay = 1``.
    """
    lengths = np.asarray(lengths, dtype=float)
    curves = np.asarray(survivals, dtype=float)
    if curves.ndim != 2 or curves.shape[1] != len(lengths):
        raise ValueError("lengths and survivals must align")
    if len(lengths) < 3:
        raise ValueError("need at least three lengths for a stable fit")
    if len(num_qubits) != len(curves):
        raise ValueError("need one qubit count per survival curve")

    rows = np.arange(len(curves))
    amplitude, offset, cost, slope = _profile(
        *_grid_powers(tuple(lengths)), curves)
    at = cost.argmin(axis=1)
    decay = _GRID[at]
    amplitude, offset, cost = (v[rows, at] for v in (amplitude, offset, cost))
    # The minimum lies on the side where P falls from the best grid point;
    # refine where dP/df changes sign between it and that neighbour.
    lo = np.where(slope[rows, at] < 0, at, at - 1)
    hi = lo + 1
    sign_change = ((lo >= 0) & (hi < len(_GRID))
                   & (slope[rows, np.maximum(lo, 0)] < 0)
                   & (slope[rows, np.minimum(hi, len(_GRID) - 1)] > 0))
    refine = rows[sign_change]
    if len(refine):
        root, root_a, root_b, root_cost = _refine(
            _GRID[lo[refine]], _GRID[hi[refine]], slope[refine, lo[refine]],
            slope[refine, hi[refine]], lengths, curves[refine])
        better = root_cost <= cost[refine]
        take = refine[better]
        decay[take], amplitude[take], offset[take] = (
            root[better], root_a[better], root_b[better])
    decay[amplitude <= _FLAT_AMPLITUDE] = 1.0
    return [RBFit(float(a), float(f), float(b), int(n))
            for a, f, b, n in zip(amplitude, decay, offset, num_qubits)]


def _refine(lo: np.ndarray, hi: np.ndarray, slope_lo: np.ndarray,
            slope_hi: np.ndarray, lengths: np.ndarray,
            curves: np.ndarray) -> List[np.ndarray]:
    """The root of ``dP/df`` in each bracket ``(lo, hi)``, one per curve.

    Returns the root and the profile's ``A``, ``B`` and ``P`` there.
    Illinois false position, vectorised over the curves: each step moves
    the bracket end whose slope has the sign of the new point's, and
    halves the other end's slope when the same end moved twice in a row.
    A curve stops once its bracket or its last step is at most
    ``_DECAY_XTOL`` or its slope vanishes, so its root does not depend on
    the other curves refined with it.
    """
    a, b, fa, fb = lo, hi, slope_lo, slope_hi
    found = [np.full(len(a), np.nan) for _ in range(4)]  # f, A, B, P
    moved = np.zeros(len(a))  # +1: ``a`` moved last, -1: ``b`` did
    live = np.ones(len(a), dtype=bool)
    for _ in range(_REFINE_STEPS):
        c = (a * fb - b * fa) / (fb - fa)
        amplitude, offset, cost, fc = (
            v[:, 0] for v in _profile(*_powers(c[:, None], lengths), curves))
        step = np.abs(c - found[0])
        found = [np.where(live, new, old) for new, old in
                 zip((c, amplitude, offset, cost), found)]
        up = live & (fc < 0)
        down = live & (fc > 0)
        fb = np.where(up & (moved > 0), fb / 2, fb)
        fa = np.where(down & (moved < 0), fa / 2, fa)
        a, fa = np.where(up, c, a), np.where(up, fc, fa)
        b, fb = np.where(down, c, b), np.where(down, fc, fb)
        moved = np.where(up, 1.0, np.where(down, -1.0, moved))
        live &= (fc != 0) & (b - a > _DECAY_XTOL) & ~(step <= _DECAY_XTOL)
        if not live.any():
            break
    return found


@lru_cache(maxsize=16)
def _grid_powers(lengths: Tuple[float, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_powers` of the grid, ``(L, 1, K)``, once per set of lengths."""
    return _powers(_GRID[None, :], np.array(lengths))


def _powers(decay: np.ndarray,
            lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``f**m`` and its derivative ``m f**(m - 1)``, lengths on a new
    leading axis.

    Element by element with the C library's ``pow``: numpy's vectorised
    power can round an element differently depending on the layout of the
    batch around it, and a curve's fit must not depend on its batch.
    """
    flat = decay.ravel().tolist()
    shape = (len(lengths),) + decay.shape
    x = [[math.pow(f, m) for f in flat] for m in lengths.tolist()]
    dx = [[m * math.pow(f, max(m - 1.0, 0.0)) for f in flat]
          for m in lengths.tolist()]
    return np.array(x).reshape(shape), np.array(dx).reshape(shape)


def _profile(x: np.ndarray, dx: np.ndarray, curves: np.ndarray):
    """The best ``(A, B)`` in ``[0, 1]²`` at each decay, its cost and slope.

    ``x`` and ``dx`` are the :func:`_powers` of ``K`` decays, per curve
    (``(L, T, K)``) or shared by all (``(L, 1, K)``); ``curves`` is
    ``(T, L)``.  Returns ``(amplitude, offset, cost, slope)``, each
    ``(T, K)``: the minimizing ``A`` and ``B``, the residual sum of
    squares ``P(f)`` and its derivative ``dP/df``.

    For fixed ``f`` the objective is convex in ``(A, B)``, so its box
    minimizer is the unconstrained least-squares solution ``(A*, B*)`` when
    that lies in the box, and otherwise the best of the four edge
    minimizers (``A`` pinned to 0 or 1 with ``B`` clipped, ``B`` pinned
    with ``A`` clipped).  Candidates are ranked by their excess over the
    unconstrained cost, ``Sxx (A - A*)² + L (A x̄ + B - ȳ)²``.  By the
    envelope theorem ``dP/df`` is the partial derivative at the minimizer,
    ``2 A Σ r_i m_i f^(m_i - 1)`` with ``r`` the residuals.  Lengths run
    along the leading axis and every reduction sums over it, element by
    element, so with exactly rounded arithmetic a curve's numbers do not
    depend on the other curves or decays in the batch.
    """
    size = len(x)
    y = curves.T[:, :, None]                         # (L, T, 1)
    x_mean = x.sum(axis=0) / size
    y_mean = y.sum(axis=0) / size
    x_dev = x - x_mean
    sxx = (x_dev * x_dev).sum(axis=0)
    # Constant x (f = 1, or f = 0 without m = 0) puts every unconstrained
    # solution on the line A x + B = mean(y); A = 0 is one of them.
    free_a = ((x_dev * (y - y_mean)).sum(axis=0)
              / np.where(sxx > 0, sxx, np.inf))
    free_b = y_mean - free_a * x_mean
    # x = 0 everywhere (f = 0) leaves A free; the zero numerator picks 0.
    xx = (x * x).sum(axis=0)
    xx[xx == 0] = 1.0
    xy = (x * y).sum(axis=0)
    zero = np.zeros_like(free_a)
    # Candidates: unconstrained, then A = 0 and A = 1 with B clipped, then
    # B = 0 and B = 1 with A clipped.
    amplitude = np.array([free_a, zero, zero + 1.0, xy / xx,
                          (xy - size * x_mean) / xx])  # (5, T, K)
    offset = np.array([free_b, zero + y_mean, y_mean - x_mean, zero,
                       zero + 1.0])
    np.clip(amplitude[1:], 0.0, 1.0, out=amplitude[1:])
    np.clip(offset[1:], 0.0, 1.0, out=offset[1:])
    excess = (sxx * (amplitude - free_a) ** 2
              + size * (amplitude * x_mean + offset - y_mean) ** 2)
    excess[0][(free_a < 0) | (free_a > 1) | (free_b < 0) | (free_b > 1)] = np.inf
    pick = excess.argmin(axis=0)
    amplitude = np.choose(pick, amplitude)
    offset = np.choose(pick, offset)
    residual = amplitude * x + offset - y
    cost = (residual * residual).sum(axis=0)
    slope = 2.0 * amplitude * (residual * dx).sum(axis=0)
    return amplitude, offset, cost, slope


def error_per_clifford_to_cnot(error_per_clifford: float,
                               cnots_per_clifford: float = 1.5) -> float:
    """Upper-bound CNOT error from Clifford error (Section 8.1)."""
    if cnots_per_clifford <= 0:
        raise ValueError("cnots_per_clifford must be positive")
    return error_per_clifford / cnots_per_clifford
