"""The profiled decay fit against scipy's ``curve_fit`` and itself.

``fit_rb_decays`` solves ``(A, B)`` in closed form for each decay and
searches the decay globally, so on every curve its residual must be no
worse than what a local ``curve_fit`` from the historical starting point
reaches.  Curves cover both ``RBConfig`` sizings and the shapes a
campaign produces: noisy decays, curves saturated at the floor, flat
curves and curves that rise with length.
"""

import warnings

import numpy as np
import pytest
from scipy import optimize

from repro.rb.executor import RBConfig
from repro.rb.fitting import fit_rb_decay, fit_rb_decays

LENGTHS = {"fast": RBConfig.fast().lengths, "default": RBConfig().lengths}
KINDS = ("noisy", "saturated", "flat", "increasing")


def _curves(kind, lengths, seed, count=12):
    """``count`` survival curves of one shape, with their qubit counts."""
    rng = np.random.default_rng(seed)
    m = np.asarray(lengths, dtype=float)
    out = []
    for _ in range(count):
        num_qubits = int(rng.integers(1, 3))
        floor = 1.0 / 2 ** num_qubits
        if kind == "noisy":
            decay = rng.uniform(0.6, 0.999)
            amp = rng.uniform(0.5, 1.0 - floor)
            y = amp * decay ** m + floor + rng.normal(0.0, 0.01, len(m))
        elif kind == "saturated":
            y = floor + rng.normal(0.0, 0.003, len(m))
            y[0] += rng.uniform(0.0, 0.05)
        elif kind == "flat":
            y = np.full(len(m), rng.choice([1.0, 0.5, 0.25, floor]))
        else:
            y = np.sort(rng.uniform(floor, 1.0, len(m)))
        out.append((np.clip(y, 0.0, 1.0), num_qubits))
    return out


def _curve_fit(lengths, survivals, num_qubits):
    """scipy's bounded ``curve_fit`` from the historical starting point."""
    lengths = np.asarray(lengths, dtype=float)
    floor = 1.0 / 2 ** num_qubits
    amp = 1.0 - floor
    y0 = max(survivals[0] - floor, 1e-6) / amp
    y1 = max(survivals[-1] - floor, 1e-6) / amp
    span = max(lengths[-1] - lengths[0], 1.0)
    ratio = min(max(y1 / y0, 1e-9), 1.0 - 1e-9)
    f0 = float(np.clip(ratio ** (1.0 / span), 1e-6, 1.0 - 1e-6))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            popt, _ = optimize.curve_fit(
                lambda m, a, f, b: a * np.power(f, m) + b,
                lengths, survivals, p0=(amp, f0, floor),
                bounds=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), maxfev=20_000,
            )
    except (RuntimeError, ValueError):
        return amp, f0, floor
    return tuple(float(v) for v in popt)


def _residual(lengths, survivals, amplitude, decay, offset):
    m = np.asarray(lengths, dtype=float)
    return float(np.sum((amplitude * decay ** m + offset - survivals) ** 2))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizing", sorted(LENGTHS))
def test_residual_never_worse_than_curve_fit(sizing, kind):
    lengths = LENGTHS[sizing]
    for y, num_qubits in _curves(kind, lengths, seed=KINDS.index(kind)):
        fit = fit_rb_decay(lengths, y, num_qubits)
        assert 0.0 <= fit.amplitude <= 1.0
        assert 0.0 <= fit.decay <= 1.0
        assert 0.0 <= fit.offset <= 1.0
        ours = _residual(lengths, y, fit.amplitude, fit.decay, fit.offset)
        theirs = _residual(lengths, y, *_curve_fit(lengths, y, num_qubits))
        assert ours <= theirs * (1 + 1e-9) + 1e-15, (y, fit)


@pytest.mark.parametrize("sizing", sorted(LENGTHS))
def test_flat_and_rising_curves_report_no_decay(sizing):
    lengths = LENGTHS[sizing]
    for kind in ("flat", "increasing"):
        for y, num_qubits in _curves(kind, lengths, seed=7):
            fit = fit_rb_decay(lengths, y, num_qubits)
            assert fit.decay == 1.0
            assert fit.error_per_clifford == 0.0


@pytest.mark.parametrize("sizing", sorted(LENGTHS))
def test_batch_equals_one_at_a_time(sizing):
    lengths = LENGTHS[sizing]
    curves = [c for kind in KINDS for c in _curves(kind, lengths, seed=11)]
    rows = [y for y, _ in curves]
    qubits = [n for _, n in curves]
    batch = fit_rb_decays(lengths, rows, qubits)
    assert batch == [fit_rb_decay(lengths, y, n) for y, n in curves]
    # Order within the batch does not matter either.
    assert fit_rb_decays(lengths, rows[::-1], qubits[::-1]) == batch[::-1]


def test_batch_validation():
    with pytest.raises(ValueError):
        fit_rb_decays([2, 8, 20], [[0.9, 0.8, 0.7]], [2, 2])
    with pytest.raises(ValueError):
        fit_rb_decays([2, 8, 20], [[0.9, 0.8]], [2])
