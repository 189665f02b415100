"""Exact density-matrix execution of a noisy, timed instruction stream.

The device backend (:mod:`repro.device.backend`) lowers a scheduled circuit
into a flat, time-ordered list of :class:`NoisyOp` events:

* ``gate`` events carry the unitary to apply plus a depolarizing
  probability (the gate's independent or crosstalk-conditional error rate);
* ``decay`` events carry amplitude-damping / phase-flip probabilities for a
  stretch of idle (or in-gate) time on one qubit.

:class:`DensityMatrix` evolves that stream through the exact channel.  The
state is a rank-``2n`` tensor ``rho[r_{n-1}, ..., r_0, c_{n-1}, ..., c_0]``
(row bits, then column bits, most significant qubit first, so a reshape
gives the little-endian ``2^n x 2^n`` matrix).  No operator is ever
embedded in the full space:

* a gate's unitary is contracted on its qubits' row axes and its
  conjugate on their column axes;
* depolarizing noise of probability ``p`` on ``k`` qubits ``Q`` uses the
  partial-trace form ``rho -> alpha rho + beta (I_Q (x) Tr_Q rho)`` with
  ``alpha = 1 - p 4^k / (4^k - 1)`` and ``beta = p 2^k / (4^k - 1)``;
* a decay event's amplitude damping and phase flip are one in-place update
  of the qubit's four (row, column) blocks.

Memory is ``16 * 4^n`` bytes, so the engine stops at :data:`MAX_QUBITS`
(16 MiB) — the regime of the paper's application circuits, which activate
4–8 qubits.

:func:`exact_output_distributions` runs a batch of streams: the event
prefix they share is evolved once and copied for each stream's own
suffix.  A tomography's 9 basis settings differ only in the rotations
just before readout, so most of their events are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.channels import ReadoutModel
from repro.sim.unitaries import gate_unitary, pauli_matrix

#: Largest number of active qubits a density matrix is built for.
MAX_QUBITS = 10


@dataclass(frozen=True)
class NoisyOp:
    """One event in the lowered noisy instruction stream.

    ``kind`` is ``"gate"`` or ``"decay"``.  For gates, ``error_prob`` is the
    depolarizing probability applied after the unitary.  For decay events,
    ``gamma`` is the amplitude-damping probability and ``p_z`` the phase-flip
    probability, both acting on ``qubits[0]``.
    """

    kind: str
    qubits: Tuple[int, ...]
    name: str = ""
    params: Tuple[float, ...] = ()
    error_prob: float = 0.0
    gamma: float = 0.0
    p_z: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gate", "decay"):
            raise ValueError(f"unknown NoisyOp kind {self.kind!r}")
        if self.kind == "decay" and len(self.qubits) != 1:
            raise ValueError("decay events act on exactly one qubit")
        for p in (self.error_prob, self.gamma, self.p_z):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")

    @classmethod
    def gate(cls, name: str, qubits: Sequence[int], params: Sequence[float] = (),
             error_prob: float = 0.0) -> "NoisyOp":
        return cls("gate", tuple(qubits), name=name, params=tuple(params),
                   error_prob=error_prob)

    @classmethod
    def decay(cls, qubit: int, gamma: float, p_z: float) -> "NoisyOp":
        return cls("decay", (qubit,), gamma=gamma, p_z=p_z)


def _monomial_sources(matrix: np.ndarray) -> Optional[List[int]]:
    """For a matrix with exactly one nonzero per row and per column, the
    column of each row's nonzero; ``None`` for any other matrix."""
    nonzero = matrix != 0
    if not (np.all(nonzero.sum(axis=0) == 1)
            and np.all(nonzero.sum(axis=1) == 1)):
        return None
    return [int(j) for j in np.argmax(nonzero, axis=1)]


@lru_cache(maxsize=4096)
def _gate_plan(name: str, params: Tuple[float, ...]):
    """``(U, conj(U), monomial sources)`` of one gate, memoized."""
    matrix = gate_unitary(name, params)
    return matrix, matrix.conj(), _monomial_sources(matrix)


def _check_size(num_qubits: int) -> None:
    if num_qubits <= 0:
        raise ValueError("need at least one qubit")
    if num_qubits > MAX_QUBITS:
        raise ValueError(
            f"density-matrix simulation beyond {MAX_QUBITS} qubits "
            f"is not supported (memory); got {num_qubits}"
        )


class DensityMatrix:
    """Mutable density matrix over ``num_qubits`` qubits (little-endian).

    The state is ``scale * tensor``: depolarizing folds its ``alpha`` into
    the scalar ``scale`` (when ``alpha > 1/2``) so that only the diagonal
    blocks of the acted-on qubits are touched.
    """

    def __init__(self, num_qubits: int):
        _check_size(num_qubits)
        self.num_qubits = num_qubits
        self._scale = 1.0
        self._rho = np.zeros((2,) * (2 * num_qubits), dtype=complex)
        self._rho[(0,) * (2 * num_qubits)] = 1.0

    def copy(self) -> "DensityMatrix":
        """An independent copy of this state.

        The tensor keeps its memory layout (``order="K"``), so every later
        event runs through the same numpy paths as on the original and the
        two evolve bitwise alike.
        """
        out = DensityMatrix.__new__(DensityMatrix)
        out.num_qubits = self.num_qubits
        out._scale = self._scale
        out._rho = self._rho.copy(order="K")
        return out

    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The ``2^n x 2^n`` matrix (little-endian basis index)."""
        dim = 2 ** self.num_qubits
        return self._scale * self._rho.reshape(dim, dim)

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        rho = self.matrix
        return float(np.real(np.sum(rho * rho.T)))

    # ------------------------------------------------------------------
    def _row_axes(self, qubits: Sequence[int]) -> List[int]:
        """Row axes of ``qubits``, most significant operand first — the
        order of a reshaped little-endian operator's input indices."""
        n = self.num_qubits
        return [n - 1 - q for q in reversed(qubits)]

    def _pair_axes(self, qubits: Sequence[int]) -> List[int]:
        """Column then row axes of ``qubits``, most significant first, so
        that the block pattern ``cols << k | rows`` indexes them."""
        rows = self._row_axes(qubits)
        return [a + self.num_qubits for a in rows] + rows

    def _block(self, axes: List[int], pattern: int) -> tuple:
        """Index of the block where ``axes`` (most significant first) read
        the bits of ``pattern``.  The trailing ``...`` keeps the block a
        view even when every axis is fixed (a one-qubit state)."""
        index = [slice(None)] * self._rho.ndim + [Ellipsis]
        for j, axis in enumerate(reversed(axes)):
            index[axis] = (pattern >> j) & 1
        return tuple(index)

    def _contract(self, matrix: np.ndarray, axes: List[int],
                  sources: Optional[List[int]]) -> None:
        """``rho <- matrix`` applied on ``axes`` (little-endian operand).

        ``sources`` (see :func:`_monomial_sources`) marks a matrix with one
        nonzero per row, such as ``cx`` or a phase gate: its blocks are
        moved and scaled in place instead of contracted.
        """
        k = len(axes)
        if sources is None:
            op = matrix.reshape((2,) * (2 * k))
            out = np.tensordot(op, self._rho, axes=(range(k, 2 * k), axes))
            self._rho = np.moveaxis(out, range(k), axes)
            return
        rho = self._rho
        saved = {j: rho[self._block(axes, j)].copy()
                 for i, j in enumerate(sources) if i != j}
        for i, j in enumerate(sources):
            factor = matrix[i, j]
            if i != j:
                rho[self._block(axes, i)] = (
                    saved[j] if factor == 1.0 else factor * saved[j]
                )
            elif factor != 1.0:
                rho[self._block(axes, i)] *= factor

    def _apply_gate(self, matrix: np.ndarray, conj: np.ndarray,
                    sources: Optional[List[int]],
                    qubits: Sequence[int]) -> None:
        axes = self._pair_axes(qubits)
        k = len(qubits)
        self._contract(matrix, axes[k:], sources)
        self._contract(conj, axes[:k], sources)

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """``rho <- U rho U^dagger``, ``U`` little-endian on ``qubits``."""
        matrix = np.asarray(matrix, dtype=complex)
        self._apply_gate(matrix, matrix.conj(), _monomial_sources(matrix),
                         qubits)

    def depolarize(self, prob: float, qubits: Sequence[int]) -> None:
        """Uniform Pauli channel of total error ``prob`` on ``qubits``."""
        dim = 2 ** len(qubits)
        alpha = 1.0 - prob * dim * dim / (dim * dim - 1)
        beta = prob * dim / (dim * dim - 1)
        axes = self._pair_axes(qubits)
        diagonal = [self._block(axes, b * (dim + 1)) for b in range(dim)]
        reduced = self._rho[diagonal[0]].copy()
        for index in diagonal[1:]:
            reduced += self._rho[index]
        if alpha > 0.5:
            self._scale *= alpha
            reduced *= beta / alpha
        else:
            self._rho *= alpha
            reduced *= beta
        for index in diagonal:
            self._rho[index] += reduced

    def decay(self, qubit: int, gamma: float, p_z: float) -> None:
        """Amplitude damping ``gamma`` then phase flip ``p_z`` on ``qubit``."""
        rho = self._rho
        axes = self._pair_axes((qubit,))
        if gamma > 0.0:
            one = rho[self._block(axes, 0b11)]
            rho[self._block(axes, 0b00)] += gamma * one
            one *= 1.0 - gamma
        coherence = math.sqrt(1.0 - gamma) * (1.0 - 2.0 * p_z)
        if coherence != 1.0:
            rho[self._block(axes, 0b01)] *= coherence
            rho[self._block(axes, 0b10)] *= coherence

    def apply_noisy_op(self, op: NoisyOp) -> None:
        """Apply one lowered event exactly (channel form)."""
        if op.kind == "gate":
            self._apply_gate(*_gate_plan(op.name, op.params), op.qubits)
            if op.error_prob > 0.0:
                self.depolarize(op.error_prob, op.qubits)
        else:
            self.decay(op.qubits[0], op.gamma, op.p_z)

    # ------------------------------------------------------------------
    def probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Joint outcome distribution over ``qubits`` (little-endian)."""
        n = self.num_qubits
        dim = 2 ** n
        diag = np.real(np.diagonal(self._rho.reshape(dim, dim)))
        keep = self._row_axes(qubits)
        drop = tuple(axis for axis in range(n) if axis not in keep)
        marginal = diag.reshape((2,) * n).sum(axis=drop)
        remaining = sorted(keep)
        marginal = marginal.transpose([remaining.index(a) for a in keep])
        return self._scale * marginal.reshape(-1)

    def expectation(self, pauli_label: str, qubits: Sequence[int]) -> float:
        """``Tr(P rho)`` for the Pauli ``pauli_label`` on ``qubits``."""
        k = len(qubits)
        op = pauli_matrix(pauli_label).reshape((2,) * (2 * k))
        rows = self._row_axes(qubits)
        out = np.moveaxis(
            np.tensordot(op, self._rho, axes=(range(k, 2 * k), rows)),
            range(k), rows,
        )
        dim = 2 ** self.num_qubits
        return self._scale * float(np.real(np.trace(out.reshape(dim, dim))))


#: One event stream to execute: ``(ops, num_qubits, measured_qubits)``.
Stream = Tuple[Sequence[NoisyOp], int, Sequence[int]]


def _shared_prefix(streams: Sequence[Sequence[NoisyOp]]) -> int:
    """Length of the longest event prefix common to every stream."""
    shared = min(len(ops) for ops in streams)
    first = streams[0]
    for ops in streams[1:]:
        i = 0
        while i < shared and ops[i] == first[i]:
            i += 1
        shared = i
    return shared


def exact_output_distributions(streams: Sequence[Stream]) -> List[np.ndarray]:
    """Output distribution of each stream, in input order.

    Streams are grouped by qubit count.  Each group's longest common event
    prefix is evolved once; every member then runs its own suffix on a
    copy of that state, and the last member takes the prefix state itself.
    So at most two states are alive at once, and each distribution is
    bitwise equal to evolving its stream alone.  Every stream's size is
    checked before any state is built.
    """
    groups: Dict[int, List[int]] = {}
    for index, (_, num_qubits, _) in enumerate(streams):
        _check_size(num_qubits)
        groups.setdefault(num_qubits, []).append(index)
    out: List[Optional[np.ndarray]] = [None] * len(streams)
    for num_qubits, members in groups.items():
        shared = _shared_prefix([streams[i][0] for i in members])
        prefix = DensityMatrix(num_qubits)
        for op in streams[members[0]][0][:shared]:
            prefix.apply_noisy_op(op)
        for position, index in enumerate(members):
            ops, _, measured = streams[index]
            rho = prefix if position == len(members) - 1 else prefix.copy()
            for op in ops[shared:]:
                rho.apply_noisy_op(op)
            out[index] = rho.probabilities(measured)
    return out


def exact_output_distribution(ops: Sequence[NoisyOp], num_qubits: int,
                              measured_qubits: Sequence[int],
                              readout: Optional[ReadoutModel] = None
                              ) -> np.ndarray:
    """Output distribution of ``ops`` over ``measured_qubits``.

    The result indexes bitstrings little-endian over ``measured_qubits``
    (bit ``k`` of the index = outcome of ``measured_qubits[k]``).
    """
    (probs,) = exact_output_distributions([(ops, num_qubits,
                                            measured_qubits)])
    if readout is not None:
        probs = readout.restrict(measured_qubits).apply_to_distribution(
            probs, range(len(measured_qubits))
        )
    return probs
