"""Noise channels in Kraus form.

These model the three physical error processes the paper's evaluation rests
on:

* **gate error** — a depolarizing channel whose probability is the CNOT's
  (independent or crosstalk-conditional) error rate;
* **decoherence** — amplitude damping (T1 relaxation) and pure dephasing
  (T2) applied for the time a qubit sits idle or under a gate;
* **readout error** — a classical per-qubit confusion matrix.

:mod:`repro.sim.density` applies the gate and decoherence channels in
closed form; the Kraus operators here verify that algebra in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.unitaries import pauli_matrix, two_qubit_pauli_labels


# ----------------------------------------------------------------------
# Kraus representations (used in tests to verify channel algebra)
# ----------------------------------------------------------------------
def depolarizing_kraus(p: float, num_qubits: int = 1) -> List[np.ndarray]:
    """Kraus operators of the ``num_qubits``-qubit depolarizing channel.

    With probability ``p`` the state is replaced by a uniformly random
    non-identity Pauli applied to it (the "error occurred" convention used
    for gate error rates, matching randomized benchmarking's depolarizing
    parameter up to the standard d^2/(d^2-1) factor).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    dim_sq = 4 ** num_qubits
    labels = _pauli_labels(num_qubits)
    ops = [math.sqrt(1.0 - p) * pauli_matrix("I" * num_qubits)]
    for label in labels:
        ops.append(math.sqrt(p / (dim_sq - 1)) * pauli_matrix(label))
    return ops


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Kraus operators of single-qubit amplitude damping (T1 decay)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def phase_damping_kraus(lam: float) -> List[np.ndarray]:
    """Kraus operators of single-qubit phase damping (pure dephasing)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)
    return [k0, k1]


def _pauli_labels(num_qubits: int) -> Tuple[str, ...]:
    if num_qubits == 1:
        return ("X", "Y", "Z")
    if num_qubits == 2:
        return two_qubit_pauli_labels()
    raise ValueError("depolarizing beyond 2 qubits not needed")


def two_qubit_depolarizing_paulis() -> Tuple[str, ...]:
    """The 15 non-identity two-qubit Pauli labels sampled on a CNOT error."""
    return two_qubit_pauli_labels()


# ----------------------------------------------------------------------
# decoherence parameters
# ----------------------------------------------------------------------
def decay_probabilities(duration: float, t1: float, t2: float) -> Tuple[float, float]:
    """Convert an idle duration and (T1, T2) into channel probabilities.

    Returns ``(gamma, p_z)`` where ``gamma`` is the amplitude-damping
    probability ``1 - exp(-t/T1)`` and ``p_z`` is the probability of a Z
    (phase-flip) error reproducing the pure-dephasing part of T2.

    The pure dephasing rate is ``1/T_phi = 1/T2 - 1/(2*T1)`` (T2 <= 2*T1 in
    any physical device); a phase-damping parameter ``lam = 1 - exp(-t/T_phi)``
    is equivalent to a Z error with probability ``(1 - sqrt(1-lam)) / 2``.
    """
    if duration < 0:
        raise ValueError("negative duration")
    if t1 <= 0 or t2 <= 0:
        raise ValueError("T1 and T2 must be positive")
    gamma = 1.0 - math.exp(-duration / t1)
    dephasing_rate = 1.0 / t2 - 1.0 / (2.0 * t1)
    if dephasing_rate <= 0.0:
        # T2 at (or numerically above) the 2*T1 limit: no pure dephasing.
        p_z = 0.0
    else:
        lam = 1.0 - math.exp(-duration * dephasing_rate)
        p_z = (1.0 - math.sqrt(1.0 - lam)) / 2.0
    return gamma, p_z


# ----------------------------------------------------------------------
# readout error
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReadoutModel:
    """Classical readout confusion model.

    ``p1_given_0[q]`` is the probability of reading 1 when qubit ``q`` is in
    state 0; ``p0_given_1[q]`` the probability of reading 0 given state 1.
    The paper quotes an average single-qubit readout error of 4.8%.
    """

    p1_given_0: Tuple[float, ...]
    p0_given_1: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.p1_given_0) != len(self.p0_given_1):
            raise ValueError("readout vectors must have equal length")
        for p in (*self.p1_given_0, *self.p0_given_1):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"readout probability {p} outside [0, 1]")

    @property
    def num_qubits(self) -> int:
        return len(self.p1_given_0)

    @classmethod
    def uniform(cls, num_qubits: int, error: float) -> "ReadoutModel":
        return cls((error,) * num_qubits, (error,) * num_qubits)

    @classmethod
    def ideal(cls, num_qubits: int) -> "ReadoutModel":
        return cls.uniform(num_qubits, 0.0)

    def confusion_matrix_1q(self, qubit: int) -> np.ndarray:
        """Column-stochastic 2x2 matrix M[measured, true]."""
        e0, e1 = self.p1_given_0[qubit], self.p0_given_1[qubit]
        return np.array([[1.0 - e0, e1], [e0, 1.0 - e1]])

    def confusion_matrix(self, qubits: Sequence[int]) -> np.ndarray:
        """Joint confusion matrix over ``qubits`` (little-endian kron).

        ``M[measured, true]`` over bitstring indices where bit ``k`` of an
        index is the outcome of ``qubits[k]``.
        """
        mat = np.array([[1.0]])
        for q in qubits:
            mat = np.kron(self.confusion_matrix_1q(q), mat)
        return mat

    def apply_to_distribution(self, probs: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
        """Push a true-outcome distribution through the confusion matrix."""
        if len(probs) != 2 ** len(qubits):
            raise ValueError("distribution length does not match qubit count")
        return self.confusion_matrix(qubits) @ np.asarray(probs, dtype=float)

    def restrict(self, qubits: Sequence[int]) -> "ReadoutModel":
        """A readout model over only ``qubits`` (renumbered 0..k-1)."""
        return ReadoutModel(
            tuple(self.p1_given_0[q] for q in qubits),
            tuple(self.p0_given_1[q] for q in qubits),
        )


def counts_to_distribution(counts: Dict[str, int], num_bits: int) -> np.ndarray:
    """Normalize a counts dict (bitstring -> count) into a probability array."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty counts")
    probs = np.zeros(2 ** num_bits)
    for bits, c in counts.items():
        if len(bits) != num_bits:
            raise ValueError(f"bitstring {bits!r} does not have {num_bits} bits")
        probs[int(bits, 2)] = c / total
    return probs


def distribution_to_counts(probs: np.ndarray, shots: int,
                           rng: np.random.Generator) -> Dict[str, int]:
    """Multinomially sample a counts dict from a probability array."""
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    probs = probs / probs.sum()
    n = int(round(math.log2(len(probs))))
    draws = rng.multinomial(shots, probs)
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0}
