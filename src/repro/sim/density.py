"""Exact density-matrix simulation of noisy instruction streams.

The Monte-Carlo trajectory engine
(:class:`~repro.sim.trajectory.BatchedTrajectorySimulator`) converges to
the channel-exact result as trajectories grow; this module computes that
limit directly by evolving the density matrix through the same
:class:`~repro.sim.trajectory.NoisyOp` stream with Kraus superoperators.

Memory is O(4^n), so this engine is for small systems (the default cap is
10 qubits) — exactly the regime of the paper's application circuits — and
for validating the trajectory engine in tests and benchmarks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.channels import (
    ReadoutModel,
    amplitude_damping_kraus,
    phase_damping_kraus,
)
from repro.sim.trajectory import NoisyOp
from repro.sim.unitaries import gate_unitary, pauli_matrix, two_qubit_pauli_labels

_PAULI_1Q = ("X", "Y", "Z")
_PAULI_2Q = two_qubit_pauli_labels()


class DensityMatrix:
    """Mutable density matrix over ``num_qubits`` qubits (little-endian)."""

    def __init__(self, num_qubits: int):
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        if num_qubits > 10:
            raise ValueError("density-matrix simulation beyond 10 qubits "
                             "is not supported (memory)")
        self.num_qubits = num_qubits
        dim = 2 ** num_qubits
        self._rho = np.zeros((dim, dim), dtype=complex)
        self._rho[0, 0] = 1.0

    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        return self._rho

    def trace(self) -> float:
        return float(np.real(np.trace(self._rho)))

    def purity(self) -> float:
        return float(np.real(np.trace(self._rho @ self._rho)))

    # ------------------------------------------------------------------
    def _embed(self, op: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
        """Expand a k-qubit operator to the full Hilbert space."""
        k = len(qubits)
        n = self.num_qubits
        dim = 2 ** n
        full = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            sub_in = sum(((col >> q) & 1) << j for j, q in enumerate(qubits))
            base = col & ~sum(1 << q for q in qubits)
            for sub_out in range(2 ** k):
                row = base | sum(((sub_out >> j) & 1) << q
                                 for j, q in enumerate(qubits))
                amp = op[sub_out, sub_in]
                if amp != 0:
                    full[row, col] += amp
        return full

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        u = self._embed(matrix, qubits)
        self._rho = u @ self._rho @ u.conj().T

    def apply_kraus(self, kraus_ops: Sequence[np.ndarray],
                    qubits: Sequence[int]) -> None:
        out = np.zeros_like(self._rho)
        for k in kraus_ops:
            full = self._embed(k, qubits)
            out += full @ self._rho @ full.conj().T
        self._rho = out

    # ------------------------------------------------------------------
    def apply_noisy_op(self, op: NoisyOp) -> None:
        """Apply one lowered event exactly (channel form)."""
        if op.kind == "gate":
            self.apply_unitary(gate_unitary(op.name, op.params), op.qubits)
            if op.error_prob > 0.0:
                labels = _PAULI_2Q if len(op.qubits) == 2 else _PAULI_1Q
                kraus = [math.sqrt(1.0 - op.error_prob)
                         * np.eye(2 ** len(op.qubits), dtype=complex)]
                kraus.extend(
                    math.sqrt(op.error_prob / len(labels)) * pauli_matrix(lab)
                    for lab in labels
                )
                self.apply_kraus(kraus, op.qubits)
        else:
            qubit = op.qubits[0]
            if op.gamma > 0.0:
                self.apply_kraus(amplitude_damping_kraus(op.gamma), (qubit,))
            if op.p_z > 0.0:
                # phase-flip channel with probability p_z
                kraus = [
                    math.sqrt(1.0 - op.p_z) * np.eye(2, dtype=complex),
                    math.sqrt(op.p_z) * pauli_matrix("Z"),
                ]
                self.apply_kraus(kraus, (qubit,))

    # ------------------------------------------------------------------
    def probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Joint outcome distribution over ``qubits`` (little-endian)."""
        diag = np.real(np.diag(self._rho))
        k = len(qubits)
        probs = np.zeros(2 ** k)
        for basis, p in enumerate(diag):
            idx = sum(((basis >> q) & 1) << j for j, q in enumerate(qubits))
            probs[idx] += p
        return probs

    def expectation(self, pauli_label: str, qubits: Sequence[int]) -> float:
        op = self._embed(pauli_matrix(pauli_label), qubits)
        return float(np.real(np.trace(op @ self._rho)))


def exact_output_distribution(ops: Sequence[NoisyOp], num_qubits: int,
                              measured_qubits: Sequence[int],
                              readout: Optional[ReadoutModel] = None
                              ) -> np.ndarray:
    """Channel-exact analogue of
    ``BatchedTrajectorySimulator.output_distribution``."""
    rho = DensityMatrix(num_qubits)
    for op in ops:
        rho.apply_noisy_op(op)
    probs = rho.probabilities(measured_qubits)
    if readout is not None:
        probs = readout.restrict(measured_qubits).apply_to_distribution(
            probs, range(len(measured_qubits))
        )
    return probs
