"""The batched exact estimator must match the scalar reference (satellite).

``estimate="exact"`` scores every error site of every sequence set of an
experiment in one numpy pass over per-sequence plans;
``estimate="exact-scalar"`` is the pre-vectorization site-by-site loop.
Identical mathematics — so survivals must agree to 1e-12 across every
noise-model configuration, experiment shape, and sequence-drawing mode.
"""

import dataclasses

import numpy as np
import pytest

from repro.rb.executor import RBConfig, RBExecutor

_BASE = RBConfig(lengths=(2, 6, 14), num_sequences=3)

_NOISE_CASES = [
    dict(include_decoherence=False, include_single_qubit_errors=True),
    dict(include_decoherence=True, include_single_qubit_errors=True),
    dict(include_decoherence=False, include_single_qubit_errors=False),
    dict(include_decoherence=True, include_single_qubit_errors=False),
]

_SRB_PAIR = [((0, 1), (2, 3))]

#: A planted pair, an unplanted pair, an independent edge and a 1q
#: spectator: three two-qubit targets whose layer-driving masks differ.
_MIXED = [((10, 15), (11, 12)), ((0, 1), (2, 3)), ((16, 17),), ((4,),)]

#: (units, RBConfig overrides, test id)
_CASES = [
    (_SRB_PAIR, noise,
     "decay={include_decoherence},1q={include_single_qubit_errors}".format(
         **noise))
    for noise in _NOISE_CASES
] + [
    (_MIXED, {}, "mixed"),
    (_MIXED, dict(include_decoherence=True), "mixed,decay=True"),
    (_MIXED, dict(shots=256), "mixed,shots=256"),
    (_MIXED, dict(share_sequences=False), "mixed,unshared"),
]


def _run(device, config, units):
    executor = RBExecutor(device, day=0, config=config, seed=5)
    return executor.run_units(units)


def _assert_parity(fast, ref, units):
    # The estimator outputs (per-length mean survivals) must agree to
    # 1e-12.  The *fitted* rates go through the profiled decay fit, whose
    # grid bracketing and root-find tolerance can amplify sub-ulp survival
    # differences, so they are compared at a looser tolerance.
    for target in fast.survivals:
        assert np.allclose(fast.survivals[target], ref.survivals[target],
                           atol=1e-12, rtol=0.0)
    for unit in units:
        for gate in unit:
            assert fast.error_rate(gate) == pytest.approx(
                ref.error_rate(gate), rel=1e-5, abs=1e-9
            )


@pytest.mark.parametrize("units,overrides", [case[:2] for case in _CASES],
                         ids=[case[2] for case in _CASES])
def test_vectorized_matches_scalar_srb_pair(poughkeepsie, units, overrides):
    fast = _run(poughkeepsie, dataclasses.replace(_BASE, estimate="exact", **overrides), units)
    ref = _run(poughkeepsie, dataclasses.replace(_BASE, estimate="exact-scalar", **overrides), units)
    _assert_parity(fast, ref, units)


def test_vectorized_matches_scalar_single_qubit_rb(poughkeepsie):
    units = [((4,), (9,))]
    fast = _run(poughkeepsie, dataclasses.replace(_BASE, estimate="exact"), units)
    ref = _run(poughkeepsie, dataclasses.replace(_BASE, estimate="exact-scalar"), units)
    _assert_parity(fast, ref, units)


def test_scalar_mode_dispatches(poughkeepsie):
    config = dataclasses.replace(_BASE, estimate="exact-scalar")
    executor = RBExecutor(poughkeepsie, day=0, config=config, seed=5)
    result = executor.run_units([((0, 1),)])
    assert 0.0 <= result.error_rate((0, 1)) < 0.5


def test_survival_curves_match_exactly(poughkeepsie):
    # Stronger than the fitted rates: the per-length mean survivals agree.
    fast_exec = RBExecutor(poughkeepsie, day=0, config=_BASE, seed=5)
    ref_exec = RBExecutor(
        poughkeepsie, day=0,
        config=dataclasses.replace(_BASE, estimate="exact-scalar"), seed=5,
    )
    units = [((0, 1), (2, 3))]
    fast = fast_exec.run_units(units)
    ref = ref_exec.run_units(units)
    for target in fast.survivals:
        assert np.allclose(fast.survivals[target], ref.survivals[target],
                           atol=1e-12, rtol=0.0)
