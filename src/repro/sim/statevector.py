"""Dense statevector simulation engine.

The engine stores the amplitudes of ``n`` qubits as a complex array of shape
``(2,) * n`` (axis ``k`` = qubit ``k``), which makes applying a gate to an
arbitrary qubit subset a tensordot + transpose.  This is fast enough for the
paper's workloads: the application circuits touch at most ~8 qubits, and the
supremacy circuits are only ever *compiled*, not simulated.

:func:`ideal_distribution` simulates only the qubits a circuit's gates
touch (plus the ones it reports on), on a compact register, so a 4-qubit
QAOA region placed on a 20-qubit device costs a 4-qubit statevector, and
the 24-qubit cap counts those qubits, not the device's.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.sim.unitaries import gate_unitary


class Statevector:
    """Mutable statevector over ``num_qubits`` qubits (little-endian)."""

    def __init__(self, num_qubits: int, rng: Optional[np.random.Generator] = None):
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        if num_qubits > 24:
            raise ValueError("dense simulation beyond 24 qubits is not supported")
        self.num_qubits = num_qubits
        self._rng = rng if rng is not None else np.random.default_rng()
        self._tensor = np.zeros((2,) * num_qubits, dtype=complex)
        self._tensor[(0,) * num_qubits] = 1.0

    # ------------------------------------------------------------------
    @property
    def vector(self) -> np.ndarray:
        """Flat amplitude vector of length ``2**num_qubits``.

        The flat index interprets qubit 0 as the least-significant bit, so
        the tensor (whose axis 0 is qubit 0) is transposed before reshaping.
        """
        return self._tensor.transpose(tuple(reversed(range(self.num_qubits)))).reshape(-1)

    @classmethod
    def from_vector(cls, vec: np.ndarray, rng: Optional[np.random.Generator] = None) -> "Statevector":
        n = int(round(math.log2(len(vec))))
        if 2 ** n != len(vec):
            raise ValueError("vector length must be a power of two")
        state = cls(n, rng)
        tensor = np.asarray(vec, dtype=complex).reshape((2,) * n)
        state._tensor = tensor.transpose(tuple(reversed(range(n))))
        return state

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self._tensor) ** 2)))

    def renormalize(self) -> None:
        n = self.norm()
        if n < 1e-12:
            raise ValueError("statevector collapsed to zero norm")
        self._tensor /= n

    # ------------------------------------------------------------------
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2^k x 2^k`` unitary (little-endian over ``qubits``)."""
        k = len(qubits)
        if matrix.shape != (2 ** k, 2 ** k):
            raise ValueError(f"matrix shape {matrix.shape} does not act on {k} qubits")
        if len(set(qubits)) != k:
            raise ValueError("duplicate qubits")
        # Reshape the matrix into a rank-2k tensor.  Little-endian means the
        # *first* listed qubit is the fastest-varying index of the matrix, so
        # reshaping yields axes (out_{k-1}..out_0, in_{k-1}..in_0).
        op = matrix.reshape((2,) * (2 * k))
        in_axes = tuple(range(2 * k - 1, k - 1, -1))  # in_0, in_1, ..., in_{k-1}
        self._tensor = np.tensordot(op, self._tensor, axes=(in_axes, tuple(qubits)))
        # tensordot leaves axes (out_{k-1}..out_0, untouched qubits ascending);
        # move every axis back so that axis q is qubit q again.
        rest = [ax for ax in range(self.num_qubits) if ax not in qubits]
        destination = list(reversed(qubits)) + rest
        self._tensor = np.moveaxis(
            self._tensor, list(range(self.num_qubits)), destination
        )

    def apply_gate(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> None:
        self.apply_matrix(gate_unitary(name, params), qubits)

    # ------------------------------------------------------------------
    def probability_of_one(self, qubit: int) -> float:
        """Probability that measuring ``qubit`` yields 1."""
        marginal = np.sum(np.abs(self._tensor) ** 2, axis=tuple(
            ax for ax in range(self.num_qubits) if ax != qubit
        ))
        return float(marginal[1])

    def measure(self, qubit: int) -> int:
        """Projective Z measurement with state collapse."""
        p1 = self.probability_of_one(qubit)
        outcome = 1 if self._rng.random() < p1 else 0
        self.project(qubit, outcome)
        return outcome

    def project(self, qubit: int, outcome: int) -> None:
        """Project ``qubit`` onto ``outcome`` and renormalize."""
        index = [slice(None)] * self.num_qubits
        index[qubit] = 1 - outcome
        self._tensor[tuple(index)] = 0.0
        self.renormalize()

    def probabilities(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Joint outcome probabilities for ``qubits`` (default: all).

        Entry ``i`` of the result is the probability of the bitstring whose
        bit ``k`` (value ``(i >> k) & 1``) is the outcome of ``qubits[k]``.
        """
        probs = np.abs(self._tensor) ** 2
        if qubits is None:
            qubits = tuple(range(self.num_qubits))
        drop = tuple(ax for ax in range(self.num_qubits) if ax not in qubits)
        marginal = probs.sum(axis=drop) if drop else probs
        # marginal axes are the kept qubits in increasing order; reorder to
        # the requested order, then flatten little-endian.
        kept = [ax for ax in range(self.num_qubits) if ax in qubits]
        order = [kept.index(q) for q in qubits]
        marginal = marginal.transpose(order)
        return marginal.transpose(tuple(reversed(range(len(qubits))))).reshape(-1)

    def sample_counts(self, shots: int, qubits: Optional[Sequence[int]] = None) -> Dict[str, int]:
        """Sample measurement counts without collapsing the state.

        Keys are bitstrings with qubit 0 (of the requested list) rightmost,
        matching the usual quantum-computing convention.
        """
        probs = self.probabilities(qubits)
        n = int(round(math.log2(len(probs))))
        draws = self._rng.multinomial(shots, probs / probs.sum())
        return {
            format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0
        }

    def density_matrix(self) -> np.ndarray:
        vec = self.vector
        return np.outer(vec, vec.conj())

    def fidelity(self, other: "Statevector") -> float:
        return float(abs(np.vdot(self.vector, other.vector)) ** 2)


def simulate_statevector(circuit: QuantumCircuit,
                         rng: Optional[np.random.Generator] = None) -> Statevector:
    """Noiselessly simulate a circuit, ignoring barriers and measurements."""
    return _simulate_on(circuit, range(circuit.num_qubits), rng)


def _simulate_on(circuit: QuantumCircuit, live: Sequence[int],
                 rng: Optional[np.random.Generator] = None) -> Statevector:
    """Simulate ``circuit``'s gates on a register of the qubits ``live``:
    register qubit ``k`` is circuit qubit ``live[k]``, and every qubit a
    gate acts on must be listed."""
    slot = {q: k for k, q in enumerate(live)}
    state = Statevector(len(slot), rng)
    for instr in circuit:
        if instr.is_directive or instr.is_measure:
            continue
        state.apply_gate(instr.name, [slot[q] for q in instr.qubits],
                         instr.params)
    return state


def ideal_distribution(circuit: QuantumCircuit,
                       qubits: Optional[Sequence[int]] = None) -> Dict[str, float]:
    """Noise-free output distribution over the measured qubits.

    When ``qubits`` is omitted, the measured qubits are taken from the
    circuit's measure instructions in clbit order (or all qubits if the
    circuit has no measurements).

    Only the qubits a gate touches, plus the requested ones, are
    simulated: the others stay in ``|0>`` and factor out of the
    distribution.  The dense-simulation cap applies to those qubits, not
    to the circuit's register.
    """
    if qubits is None:
        measured = sorted(
            ((instr.clbit, instr.qubits[0]) for instr in circuit if instr.is_measure),
        )
        qubits = [q for _, q in measured] or list(range(circuit.num_qubits))
    if any(not 0 <= q < circuit.num_qubits for q in qubits):
        raise ValueError(f"qubits {list(qubits)} are not all in the circuit")
    live = sorted(set(qubits).union(
        q for instr in circuit
        if not (instr.is_directive or instr.is_measure)
        for q in instr.qubits))
    state = _simulate_on(circuit, live)
    probs = state.probabilities([live.index(q) for q in qubits])
    n = len(qubits)
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p > 1e-12}
