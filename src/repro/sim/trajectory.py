"""Monte-Carlo trajectory execution of a noisy, timed instruction stream.

The device backend (:mod:`repro.device.backend`) lowers a scheduled circuit
into a flat, time-ordered list of :class:`NoisyOp` events:

* ``gate`` events carry the unitary to apply plus a depolarizing
  probability (the gate's independent or crosstalk-conditional error rate);
* ``decay`` events carry amplitude-damping / phase-flip probabilities for a
  stretch of idle (or in-gate) time on one qubit.

:class:`BatchedTrajectorySimulator` executes that stream: a stacked
``(B, 2, ..., 2)`` amplitude array evolves all ``B`` trajectories of a
batch per NumPy call, with stochastic branching decided by per-trajectory
Bernoulli draws.  Every trajectory owns an RNG stream derived from its
*global index*, so the accumulated distribution is bitwise identical for
every batch size (and therefore every chunking / worker count), and the
``engine="scalar"`` reference path reproduces the same physics one
statevector at a time for 1e-12 parity tests.

The simulator averages the exact output distribution of many stochastic
trajectories; the backend then samples shot counts from it — which
converges much faster than per-shot simulation for the shot budgets the
paper uses (1024+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import get_registry
from repro.sim.channels import ReadoutModel, two_qubit_depolarizing_paulis
from repro.sim.statevector import Statevector
from repro.sim.unitaries import gate_unitary, pauli_matrix

_PAULI_1Q = ("X", "Y", "Z")
_PAULI_2Q = two_qubit_depolarizing_paulis()

#: ``sim.engine`` gauge coding (registered in docs/observability.md).
ENGINE_CODES = {"scalar": 0, "batched": 1}


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


# ----------------------------------------------------------------------
# single-trajectory physics (the scalar parity path)
# ----------------------------------------------------------------------
def _evolve_single(num_qubits: int, ops: Sequence[NoisyOp],
                   rng: np.random.Generator) -> Statevector:
    """Evolve one trajectory of ``ops`` drawing every branch from ``rng``."""
    state = Statevector(num_qubits, rng)
    for op in ops:
        if op.kind == "gate":
            state.apply_matrix(gate_unitary(op.name, op.params), op.qubits)
            if op.error_prob > 0.0 and rng.random() < op.error_prob:
                labels = _PAULI_2Q if len(op.qubits) == 2 else _PAULI_1Q
                label = labels[rng.integers(len(labels))]
                state.apply_matrix(pauli_matrix(label), op.qubits)
        else:
            _apply_decay_single(state, op, rng)
    return state


def _apply_decay_single(state: Statevector, op: NoisyOp,
                        rng: np.random.Generator) -> None:
    """One amplitude-damping / dephasing event on a single statevector."""
    qubit = op.qubits[0]
    if op.gamma > 0.0:
        # Amplitude damping via proper trajectory branching: the jump
        # branch |1> -> |0> fires with probability gamma * P(|1>).
        p1 = state.probability_of_one(qubit)
        p_jump = op.gamma * p1
        if rng.random() < p_jump:
            # K1 = sqrt(gamma) |0><1| : project onto |1> then flip to |0>.
            state.project(qubit, 1)
            state.apply_matrix(pauli_matrix("X"), (qubit,))
        else:
            # K0 = diag(1, sqrt(1-gamma)), renormalized.
            k0 = np.array(
                [[1.0, 0.0], [0.0, math.sqrt(1.0 - op.gamma)]], dtype=complex
            )
            state.apply_matrix(k0, (qubit,))
            state.renormalize()
    if op.p_z > 0.0 and rng.random() < op.p_z:
        state.apply_matrix(pauli_matrix("Z"), (qubit,))


# ----------------------------------------------------------------------
# per-trajectory RNG streams
# ----------------------------------------------------------------------
def trajectory_seed(root: np.random.SeedSequence,
                    index: int) -> np.random.SeedSequence:
    """The RNG stream of the trajectory with *global* index ``index``.

    Equivalent to ``root.spawn(index + 1)[index]`` but stateless: the
    stream depends only on the root entropy and the index, never on how
    many children were spawned before — so any chunking of a trajectory
    budget reproduces the same per-trajectory streams.
    """
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=(*root.spawn_key, int(index))
    )


def trajectory_generators(root: np.random.SeedSequence, start: int,
                          count: int) -> List[np.random.Generator]:
    """Generators for the ``count`` trajectories starting at ``start``."""
    return [np.random.default_rng(trajectory_seed(root, start + i))
            for i in range(count)]


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int / ``SeedSequence`` / ``None`` seed into a root."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


# ----------------------------------------------------------------------
# batched engine
# ----------------------------------------------------------------------
def _batched_index(psi: np.ndarray, qubit: int, value: int) -> Tuple:
    """Index tuple selecting one computational component of one qubit
    across the whole batch (batch axis 0, qubit ``q`` on axis ``q + 1``)."""
    return (slice(None),) * (qubit + 1) + (value,)


def _apply_matrix_batched(psi: np.ndarray, matrix: np.ndarray,
                          qubits: Sequence[int]) -> np.ndarray:
    """Apply a little-endian ``2^k x 2^k`` unitary to every trajectory.

    The one- and two-qubit paths are pure elementwise multiply-adds over
    component views, which NumPy evaluates per element — so each
    trajectory's amplitudes come out bitwise identical no matter how many
    other trajectories share the batch.  (A BLAS matmul would not make
    that guarantee: tail-block kernels may round differently than full
    SIMD blocks.)
    """
    k = len(qubits)
    if k == 1:
        q = qubits[0]
        a0 = psi[_batched_index(psi, q, 0)]
        a1 = psi[_batched_index(psi, q, 1)]
        b0 = matrix[0, 0] * a0 + matrix[0, 1] * a1
        b1 = matrix[1, 0] * a0 + matrix[1, 1] * a1
        psi[_batched_index(psi, q, 0)] = b0
        psi[_batched_index(psi, q, 1)] = b1
        return psi
    if k == 2:
        qa, qb = qubits
        views = {}
        for a in (0, 1):
            for b in (0, 1):
                idx = [slice(None)] * psi.ndim
                idx[qa + 1] = a
                idx[qb + 1] = b
                views[a, b] = tuple(idx)
        olds = {key: psi[idx] for key, idx in views.items()}
        news = {}
        # Little-endian over ``qubits``: the first listed qubit is the
        # fastest-varying matrix index.
        for a in (0, 1):
            for b in (0, 1):
                row = a + 2 * b
                news[a, b] = (
                    matrix[row, 0] * olds[0, 0]
                    + matrix[row, 1] * olds[1, 0]
                    + matrix[row, 2] * olds[0, 1]
                    + matrix[row, 3] * olds[1, 1]
                )
        for key, idx in views.items():
            psi[idx] = news[key]
        return psi
    # Generic fallback (no 3+-qubit gates exist in the IR today): the same
    # tensordot dance as Statevector.apply_matrix with a leading batch axis.
    op = matrix.reshape((2,) * (2 * k))
    in_axes = tuple(range(2 * k - 1, k - 1, -1))
    out = np.tensordot(op, psi, axes=(in_axes, tuple(q + 1 for q in qubits)))
    # out axes: (out_{k-1}..out_0, batch, untouched qubit axes ascending)
    sources = list(range(k + 1))
    destinations = [q + 1 for q in reversed(qubits)] + [0]
    return np.moveaxis(out, sources, destinations)


def _row_norms(psi: np.ndarray) -> np.ndarray:
    """Per-trajectory state norms, shape ``(B,)``."""
    axes = tuple(range(1, psi.ndim))
    return np.sqrt(np.sum(np.abs(psi) ** 2, axis=axes))


def _uniform_draws(generators: Sequence[np.random.Generator]) -> np.ndarray:
    """One uniform draw per trajectory, in trajectory order."""
    return np.fromiter((g.random() for g in generators), dtype=float,
                       count=len(generators))


class BatchedTrajectorySimulator:
    """Vectorized Monte-Carlo trajectory engine (see module docstring).

    ``seed`` is an int, a :class:`~numpy.random.SeedSequence` (how the
    backend ships its per-run root), or ``None``; it roots the
    *per-trajectory* streams — trajectory ``i`` always draws from
    :func:`trajectory_seed` ``(root, i)``, whatever the batch layout.

    ``engine`` picks the evolution strategy:

    * ``"batched"`` (default) — all trajectories of a batch evolve in one
      stacked ``(B, 2, ..., 2)`` array per event;
    * ``"scalar"`` — the reference path: one statevector at a time, same
      per-trajectory streams, same physics.  Distributions agree with the
      batched path to ~1e-15 (parity-tested at 1e-12); they are *not*
      bitwise identical because the batched path uses elementwise
      multiply-adds where the scalar path uses ``tensordot``.
    """

    def __init__(self, num_qubits: int, seed=None, engine: str = "batched"):
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        if engine not in ENGINE_CODES:
            raise ValueError(
                f"unknown engine {engine!r}; pick from {sorted(ENGINE_CODES)}"
            )
        self.num_qubits = num_qubits
        self.engine = engine
        self._root = _as_seed_sequence(seed)

    # ------------------------------------------------------------------
    def _evolve_batch(self, ops: Sequence[NoisyOp],
                      generators: Sequence[np.random.Generator]) -> np.ndarray:
        """Evolve one batch; returns amplitudes ``(B, 2, ..., 2)``."""
        n = self.num_qubits
        batch = len(generators)
        psi = np.zeros((batch,) + (2,) * n, dtype=complex)
        psi[(slice(None),) + (0,) * n] = 1.0
        for op in ops:
            if op.kind == "gate":
                psi = _apply_matrix_batched(
                    psi, gate_unitary(op.name, op.params), op.qubits
                )
                if op.error_prob > 0.0:
                    draws = _uniform_draws(generators)
                    firing = np.flatnonzero(draws < op.error_prob)
                    if firing.size:
                        labels = (_PAULI_2Q if len(op.qubits) == 2
                                  else _PAULI_1Q)
                        picks = [int(generators[b].integers(len(labels)))
                                 for b in firing]
                        for label_index in set(picks):
                            rows = firing[[i for i, p in enumerate(picks)
                                           if p == label_index]]
                            sub = psi[rows]
                            sub = _apply_matrix_batched(
                                sub, pauli_matrix(labels[label_index]),
                                op.qubits,
                            )
                            psi[rows] = sub
            else:
                psi = self._apply_decay_batched(psi, op, generators)
        return psi

    def _apply_decay_batched(self, psi: np.ndarray, op: NoisyOp,
                             generators: Sequence[np.random.Generator]
                             ) -> np.ndarray:
        """Batched amplitude damping + dephasing, one Bernoulli draw per
        trajectory per channel (matching the scalar draw pattern)."""
        qubit = op.qubits[0]
        if op.gamma > 0.0:
            # P(|1>) per trajectory from the (normalized) amplitudes.
            drop = tuple(ax for ax in range(1, psi.ndim) if ax != qubit + 1)
            marginal = np.sum(np.abs(psi) ** 2, axis=drop)  # (B, 2)
            p_jump = op.gamma * marginal[:, 1]
            draws = _uniform_draws(generators)
            jump = draws < p_jump
            jump_rows = np.flatnonzero(jump)
            if jump_rows.size:
                sub = psi[jump_rows]
                one = sub[_batched_index(sub, qubit, 1)].copy()
                sub[_batched_index(sub, qubit, 0)] = one
                sub[_batched_index(sub, qubit, 1)] = 0.0
                norms = _row_norms(sub)
                if np.any(norms < 1e-12):
                    raise ValueError("statevector collapsed to zero norm")
                sub /= norms.reshape((-1,) + (1,) * (psi.ndim - 1))
                psi[jump_rows] = sub
            keep_rows = np.flatnonzero(~jump)
            if keep_rows.size:
                sub = psi[keep_rows]
                scale = math.sqrt(1.0 - op.gamma)
                sub[_batched_index(sub, qubit, 1)] *= scale
                norms = _row_norms(sub)
                if np.any(norms < 1e-12):
                    raise ValueError("statevector collapsed to zero norm")
                sub /= norms.reshape((-1,) + (1,) * (psi.ndim - 1))
                psi[keep_rows] = sub
        if op.p_z > 0.0:
            draws = _uniform_draws(generators)
            flip_rows = np.flatnonzero(draws < op.p_z)
            if flip_rows.size:
                sub = psi[flip_rows]
                sub[_batched_index(sub, qubit, 1)] *= -1.0
                psi[flip_rows] = sub
        return psi

    def _batch_probabilities(self, psi: np.ndarray,
                             measured_qubits: Sequence[int]) -> np.ndarray:
        """Per-trajectory outcome distributions, shape ``(B, 2**m)``.

        Mirrors :meth:`Statevector.probabilities` with a leading batch
        axis: marginalize the dropped qubits, reorder to the requested
        qubit order, flatten little-endian.
        """
        n = self.num_qubits
        probs = np.abs(psi) ** 2
        drop = tuple(ax + 1 for ax in range(n) if ax not in measured_qubits)
        marginal = probs.sum(axis=drop) if drop else probs
        kept = [ax for ax in range(n) if ax in measured_qubits]
        order = [kept.index(q) for q in measured_qubits]
        marginal = marginal.transpose([0] + [1 + o for o in order])
        m = len(measured_qubits)
        marginal = marginal.transpose(
            [0] + [m - i for i in range(m)]
        )
        return marginal.reshape(len(psi), -1)

    # ------------------------------------------------------------------
    def accumulate(self, ops: Sequence[NoisyOp],
                   measured_qubits: Sequence[int], trajectories: int, *,
                   first_trajectory: int = 0,
                   batch_size: Optional[int] = None) -> np.ndarray:
        """Unnormalized sum of ``trajectories`` output distributions.

        Trajectory ``i`` of this call is *global* trajectory
        ``first_trajectory + i``: its RNG stream — and therefore its
        contribution — depends only on that index and the root seed.
        Partial sums accumulate in trajectory order with one scalar add
        per trajectory, so the result is bitwise identical for every
        ``batch_size`` (``None`` = the whole budget in one batch).  A
        budget split into ``first_trajectory`` windows and merged in
        window order is likewise bitwise reproducible for a *fixed*
        window plan — which is why the backend's chunk planner keys only
        on (trajectories, num_qubits), never on worker count.
        """
        if trajectories <= 0:
            raise ValueError("need at least one trajectory")
        measured = list(measured_qubits)
        total = np.zeros(2 ** len(measured))
        step = trajectories if batch_size is None else max(1, int(batch_size))
        registry = get_registry()
        done = 0
        while done < trajectories:
            count = min(step, trajectories - done)
            generators = trajectory_generators(
                self._root, first_trajectory + done, count
            )
            if self.engine == "batched":
                psi = self._evolve_batch(ops, generators)
                rows = self._batch_probabilities(psi, measured)
                registry.inc("sim.batch.batches")
                registry.inc("sim.batch.trajectories", count)
                registry.observe("sim.batch.size", float(count))
            else:
                rows = [
                    _evolve_single(self.num_qubits, ops, g).probabilities(
                        measured
                    )
                    for g in generators
                ]
            for row in rows:
                total += row
            done += count
        return total

    def output_distribution(self, ops: Sequence[NoisyOp],
                            measured_qubits: Sequence[int],
                            trajectories: int = 64,
                            readout: Optional[ReadoutModel] = None, *,
                            first_trajectory: int = 0,
                            batch_size: Optional[int] = None) -> np.ndarray:
        """Average output distribution over ``trajectories`` random runs.

        The result indexes bitstrings little-endian over ``measured_qubits``
        (bit ``k`` of the index = outcome of ``measured_qubits[k]``).
        """
        probs = self.accumulate(
            ops, measured_qubits, trajectories,
            first_trajectory=first_trajectory, batch_size=batch_size,
        ) / trajectories
        if readout is not None:
            probs = readout.restrict(measured_qubits).apply_to_distribution(
                probs, range(len(measured_qubits))
            )
        return probs
