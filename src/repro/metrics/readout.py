"""Readout-error mitigation (confusion-matrix inversion).

The paper applies readout mitigation [25] to every application experiment.
Given the per-qubit confusion matrices (from calibration, or measured with
basis-state preparation circuits), the measured distribution ``q = M p`` is
inverted by constrained least squares to recover the true distribution
``p`` (clipped to the simplex).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.sim.channels import ReadoutModel, counts_to_distribution


def mitigate_distribution(probs: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """Invert a confusion matrix on a measured distribution.

    Solves ``min ||M p - q||`` subject to ``p >= 0, sum p = 1`` — the
    standard least-squares mitigation, robust when ``M`` is ill-conditioned.
    """
    probs = np.asarray(probs, dtype=float)
    n = len(probs)
    if confusion.shape != (n, n):
        raise ValueError("confusion matrix does not match distribution size")

    # Fast path: plain inversion already valid.
    try:
        candidate = np.linalg.solve(confusion, probs)
    except np.linalg.LinAlgError:
        candidate = None
    if candidate is not None and candidate.min() >= -1e-9:
        candidate = np.clip(candidate, 0.0, None)
        return candidate / candidate.sum()

    # Imported here: exact inversion (the usual case) never gets this far,
    # and the optimizer package costs ~0.35 s and ~50 MB to import.
    from scipy import optimize

    result = optimize.lsq_linear(
        confusion, probs, bounds=(0.0, 1.0), method="bvls"
    )
    mitigated = np.clip(result.x, 0.0, None)
    total = mitigated.sum()
    if total <= 0:
        raise ValueError("mitigation collapsed the distribution")
    return mitigated / total


def mitigate_counts(counts: Dict[str, int], qubits: Sequence[int],
                    readout: ReadoutModel) -> np.ndarray:
    """Counts (bitstring keys, qubit 0 of ``qubits`` rightmost) ->
    mitigated probability array."""
    probs = counts_to_distribution(counts, len(qubits))
    return mitigate_distribution(probs, readout.confusion_matrix(qubits))


def measure_readout_model(backend, qubits: Sequence[int],
                          shots: int = 2048) -> ReadoutModel:
    """Estimate per-qubit confusion by preparing |0> and |1| on each qubit.

    This mirrors the calibration-circuit approach of Ignis: for each qubit,
    run a bare measurement and an X-then-measure circuit, estimating
    ``P(1|0)`` and ``P(0|1)`` from the flip fractions.
    """
    num = backend.device.num_qubits
    p1_given_0 = []
    p0_given_1 = []
    for q in qubits:
        circ0 = QuantumCircuit(num, 1, name=f"ro_cal0_q{q}")
        circ0.id(q)
        circ0.measure(q, 0)
        res0 = backend.run(circ0, shots=shots)
        ones = sum(c for bits, c in res0.counts.items() if bits[-1] == "1")
        p1_given_0.append(ones / shots)

        circ1 = QuantumCircuit(num, 1, name=f"ro_cal1_q{q}")
        circ1.x(q)
        circ1.measure(q, 0)
        res1 = backend.run(circ1, shots=shots)
        zeros = sum(c for bits, c in res1.counts.items() if bits[-1] == "0")
        p0_given_1.append(zeros / shots)
    return ReadoutModel(tuple(p1_given_0), tuple(p0_given_1))
