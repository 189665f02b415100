"""Tests for the exact tensor density-matrix engine.

The engine never embeds an operator in the full space.  :class:`DenseOracle`
does: it builds every gate, Pauli and Kraus operator as a ``2^n x 2^n``
matrix and applies the channel as ``sum_k K rho K^dagger``.  The engine must
match it to 1e-12 on every kind of :class:`NoisyOp`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.channels import (
    ReadoutModel,
    amplitude_damping_kraus,
    decay_probabilities,
)
from repro.sim.density import (
    MAX_QUBITS,
    DensityMatrix,
    NoisyOp,
    exact_output_distribution,
    exact_output_distributions,
)
from repro.sim.statevector import Statevector
from repro.sim.unitaries import (
    gate_unitary,
    pauli_matrix,
    two_qubit_pauli_labels,
)


class DenseOracle:
    """Dense ``2^n x 2^n`` reference: every operator embedded in full."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        dim = 2 ** num_qubits
        self.rho = np.zeros((dim, dim), dtype=complex)
        self.rho[0, 0] = 1.0

    def _embed(self, op, qubits):
        """Expand a k-qubit operator to the full Hilbert space."""
        k = len(qubits)
        dim = 2 ** self.num_qubits
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

    def apply_kraus(self, kraus_ops, qubits):
        out = np.zeros_like(self.rho)
        for k in kraus_ops:
            full = self._embed(k, qubits)
            out += full @ self.rho @ full.conj().T
        self.rho = out

    def apply_noisy_op(self, op):
        if op.kind == "gate":
            self.apply_kraus([gate_unitary(op.name, op.params)], op.qubits)
            if op.error_prob > 0.0:
                labels = (two_qubit_pauli_labels() if len(op.qubits) == 2
                          else ("X", "Y", "Z"))
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
                self.apply_kraus([
                    math.sqrt(1.0 - op.p_z) * np.eye(2, dtype=complex),
                    math.sqrt(op.p_z) * pauli_matrix("Z"),
                ], (qubit,))

    def probabilities(self, qubits):
        diag = np.real(np.diag(self.rho))
        probs = np.zeros(2 ** len(qubits))
        for basis, p in enumerate(diag):
            idx = sum(((basis >> q) & 1) << j for j, q in enumerate(qubits))
            probs[idx] += p
        return probs


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


_ONE_QUBIT = {"h": 0, "x": 0, "y": 0, "z": 0, "s": 0, "sdg": 0, "t": 0,
              "sx": 0, "rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3}


def _random_noisy_stream(rng, n, length=30):
    """Every event kind: 1q gates with and without params, 2q gates, 1q
    and 2q depolarizing, and decay with gamma only, p_z only, and both."""
    ops = []
    decay_kinds = ((0.3, 0.0), (0.0, 0.2), (0.15, 0.1))
    for step in range(length):
        r = rng.random()
        error = float(rng.uniform(0.0, 0.2)) if rng.random() < 0.7 else 0.0
        if r < 0.35 or n == 1:
            name = list(_ONE_QUBIT)[rng.integers(len(_ONE_QUBIT))]
            params = tuple(float(v) for v in
                           rng.uniform(-np.pi, np.pi, _ONE_QUBIT[name]))
            ops.append(NoisyOp.gate(name, (int(rng.integers(n)),), params,
                                    error_prob=error))
        elif r < 0.7:
            a, b = (int(q) for q in rng.choice(n, 2, replace=False))
            name = ("cx", "cz", "swap")[rng.integers(3)]
            ops.append(NoisyOp.gate(name, (a, b), error_prob=error))
        else:
            gamma, p_z = decay_kinds[step % 3]
            ops.append(NoisyOp.decay(int(rng.integers(n)),
                                     gamma * float(rng.random()),
                                     p_z * float(rng.random())))
    return ops


class TestBasics:
    def test_initial_state(self):
        rho = DensityMatrix(2)
        assert rho.trace() == pytest.approx(1.0)
        assert rho.purity() == pytest.approx(1.0)
        assert rho.matrix[0, 0] == pytest.approx(1.0)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            DensityMatrix(0)
        with pytest.raises(ValueError):
            DensityMatrix(MAX_QUBITS + 1)

    def test_unitary_preserves_purity(self):
        rho = DensityMatrix(2)
        rho.apply_unitary(gate_unitary("h"), (0,))
        rho.apply_unitary(gate_unitary("cx"), (0, 1))
        assert rho.purity() == pytest.approx(1.0)
        probs = rho.probabilities([0, 1])
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)

    def test_matches_statevector_on_unitaries(self):
        rng = np.random.default_rng(3)
        ops = []
        for _ in range(15):
            if rng.random() < 0.5:
                ops.append(("h", (int(rng.integers(3)),)))
            else:
                a, b = rng.choice(3, 2, replace=False)
                ops.append(("cx", (int(a), int(b))))
        rho = DensityMatrix(3)
        sv = Statevector(3)
        for name, qubits in ops:
            rho.apply_unitary(gate_unitary(name), qubits)
            sv.apply_gate(name, qubits)
        assert np.allclose(rho.matrix, sv.density_matrix(), atol=1e-9)

    def test_depolarizing_mixes(self):
        rho = DensityMatrix(1)
        rho.apply_noisy_op(NoisyOp.gate("id", (0,), error_prob=0.75))
        # p=0.75 single-qubit depolarizing on |0>: fully mixed Z expectation
        assert rho.expectation("Z", (0,)) == pytest.approx(1 - 0.75 * 4 / 3)
        assert rho.trace() == pytest.approx(1.0)

    def test_amplitude_damping_channel(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(gate_unitary("x"), (0,))
        rho.apply_noisy_op(NoisyOp.decay(0, gamma=0.4, p_z=0.0))
        probs = rho.probabilities([0])
        assert probs[1] == pytest.approx(0.6)

    def test_dephasing_kills_coherence(self):
        rho = DensityMatrix(1)
        rho.apply_unitary(gate_unitary("h"), (0,))
        rho.apply_noisy_op(NoisyOp.decay(0, gamma=0.0, p_z=0.5))
        assert rho.expectation("X", (0,)) == pytest.approx(0.0, abs=1e-9)
        assert rho.probabilities([0])[1] == pytest.approx(0.5)

    def test_expectation_on_subset(self):
        rho = DensityMatrix(3)
        rho.apply_unitary(gate_unitary("x"), (2,))
        assert rho.expectation("Z", (2,)) == pytest.approx(-1.0)
        assert rho.expectation("Z", (0,)) == pytest.approx(1.0)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_stream_matches_oracle(self, n, seed):
        rng = np.random.default_rng(100 * n + seed)
        ops = _random_noisy_stream(rng, n)
        rho = DensityMatrix(n)
        oracle = DenseOracle(n)
        for op in ops:
            rho.apply_noisy_op(op)
            oracle.apply_noisy_op(op)
        assert np.max(np.abs(rho.matrix - oracle.rho)) < 1e-12
        # random measured subset, in random order
        measured = [int(q) for q in
                    rng.permutation(n)[:int(rng.integers(1, n + 1))]]
        got = exact_output_distribution(ops, n, measured)
        assert np.max(np.abs(got - oracle.probabilities(measured))) < 1e-12

    @pytest.mark.parametrize("kind", [
        ("gate", "u3", 1, (0.3, -1.2, 2.1), 0.0),
        ("gate", "rz", 1, (0.7,), 0.05),
        ("gate", "cx", 2, (), 0.0),
        ("gate", "cx", 2, (), 0.12),
        ("gate", "swap", 2, (), 0.3),
        ("decay", "gamma", 1, (0.4, 0.0), 0.0),
        ("decay", "p_z", 1, (0.0, 0.3), 0.0),
        ("decay", "both", 1, (0.25, 0.15), 0.0),
    ])
    def test_each_event_kind_on_random_qubits(self, kind):
        event, name, k, params, error = kind
        n = 5
        rng = np.random.default_rng(7)
        prelude = _random_noisy_stream(rng, n, length=12)
        qubits = tuple(int(q) for q in rng.choice(n, k, replace=False))
        if event == "gate":
            op = NoisyOp.gate(name, qubits, params, error_prob=error)
        else:
            op = NoisyOp.decay(qubits[0], *params)
        rho = DensityMatrix(n)
        oracle = DenseOracle(n)
        for item in prelude + [op]:
            rho.apply_noisy_op(item)
            oracle.apply_noisy_op(item)
        assert np.max(np.abs(rho.matrix - oracle.rho)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_dense_unitaries_match_oracle(self, k):
        # Arbitrary unitaries take the contraction path (the IR's 2q gates
        # are all permutations up to phase).
        rng = np.random.default_rng(11 + k)
        n = 4
        rho = DensityMatrix(n)
        oracle = DenseOracle(n)
        for _ in range(6):
            u = _random_unitary(rng, 2 ** k)
            qubits = [int(q) for q in rng.choice(n, k, replace=False)]
            rho.apply_unitary(u, qubits)
            oracle.apply_kraus([u], qubits)
            rho.depolarize(0.1, qubits)
            oracle_kraus = [math.sqrt(0.9) * np.eye(2 ** k, dtype=complex)]
            labels = two_qubit_pauli_labels() if k == 2 else ("X", "Y", "Z")
            oracle_kraus.extend(math.sqrt(0.1 / len(labels))
                                * pauli_matrix(label) for label in labels)
            oracle.apply_kraus(oracle_kraus, qubits)
        assert np.max(np.abs(rho.matrix - oracle.rho)) < 1e-12

    def test_strong_depolarizing_matches_oracle(self):
        # alpha <= 1/2 (and alpha = 0 exactly) takes the unscaled update.
        for p, k in ((0.75, 1), (0.9, 1), (15 / 16, 2), (1.0, 2)):
            rho = DensityMatrix(3)
            oracle = DenseOracle(3)
            for op in (NoisyOp.gate("h", (0,)), NoisyOp.gate("cx", (0, 2)),
                       NoisyOp.gate("id" if k == 1 else "cz",
                                    (2,) if k == 1 else (2, 1),
                                    error_prob=p)):
                rho.apply_noisy_op(op)
                oracle.apply_noisy_op(op)
            assert np.max(np.abs(rho.matrix - oracle.rho)) < 1e-12


class TestNoisyStreams:
    def _random_stream(self, rng, num_qubits, length):
        ops = []
        for _ in range(length):
            r = rng.random()
            if r < 0.35:
                ops.append(NoisyOp.gate(
                    ["h", "s", "t", "x"][rng.integers(4)],
                    (int(rng.integers(num_qubits)),),
                    error_prob=float(rng.uniform(0, 0.05)),
                ))
            elif r < 0.7 and num_qubits >= 2:
                a, b = rng.choice(num_qubits, 2, replace=False)
                ops.append(NoisyOp.gate("cx", (int(a), int(b)),
                                        error_prob=float(rng.uniform(0, 0.1))))
            else:
                gamma, p_z = decay_probabilities(
                    float(rng.uniform(100, 2000)), 20_000.0, 15_000.0
                )
                ops.append(NoisyOp.decay(int(rng.integers(num_qubits)),
                                         gamma, p_z))
        return ops

    def test_exact_with_readout(self):
        ops = [NoisyOp.gate("x", (0,))]
        ro = ReadoutModel.uniform(2, 0.1)
        probs = exact_output_distribution(ops, 2, [0], readout=ro)
        assert probs[0] == pytest.approx(0.1)
        assert probs[1] == pytest.approx(0.9)

    def test_trace_preserved_through_stream(self):
        rng = np.random.default_rng(7)
        ops = self._random_stream(rng, 3, 25)
        rho = DensityMatrix(3)
        for op in ops:
            rho.apply_noisy_op(op)
            assert rho.trace() == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# Batches against the reference they replace: one plain evolution per
# stream.
# ----------------------------------------------------------------------
def evolve_alone(ops, num_qubits, measured):
    rho = DensityMatrix(num_qubits)
    for op in ops:
        rho.apply_noisy_op(op)
    return rho.probabilities(measured)


#: How a batch's streams relate to one random base stream.
BATCH_SHAPES = ("diverge_at_first", "diverge_in_middle", "diverge_at_last",
                "strict_prefix", "duplicates", "two_qubit_counts", "single")


def stream_batch(shape, seed):
    """A batch of ``(ops, num_qubits, measured)`` streams of one shape."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))

    def stream(num_qubits, length):
        return _random_noisy_stream(rng, num_qubits, length=length)

    def measured(num_qubits):
        return [int(q) for q in rng.permutation(num_qubits)
                [:int(rng.integers(1, num_qubits + 1))]]

    base = stream(n, int(rng.integers(4, 16)))
    middle = len(base) // 2
    if shape == "diverge_at_first":
        lists = [base] + [stream(n, int(rng.integers(1, 6)))
                          for _ in range(2)]
    elif shape == "diverge_in_middle":
        lists = [base[:middle] + stream(n, int(rng.integers(1, 6)))
                 for _ in range(3)] + [base]
    elif shape == "diverge_at_last":
        lists = [base, base[:-1] + stream(n, 1)]
    elif shape == "strict_prefix":
        lists = [base[:middle], base, base[:middle + 1]]
    elif shape == "duplicates":
        lists = [base, list(base), base]
    elif shape == "two_qubit_counts":
        other = stream(n + 1, int(rng.integers(4, 16)))
        cut = len(other) // 2
        streams = [(base, n, measured(n)),
                   (other, n + 1, measured(n + 1)),
                   (base[:middle] + stream(n, 3), n, measured(n)),
                   (other[:cut] + stream(n + 1, 3), n + 1, measured(n + 1))]
        return streams
    else:
        lists = [base]
    return [(ops, n, measured(n)) for ops in lists]


@settings(max_examples=70, deadline=None)
@given(shape=st.sampled_from(BATCH_SHAPES), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_matches_one_evolution_per_stream(shape, seed):
    streams = stream_batch(shape, seed)
    got = exact_output_distributions(streams)
    assert len(got) == len(streams)
    for (ops, n, measured), probs in zip(streams, got):
        assert np.array_equal(probs, evolve_alone(ops, n, measured))


class TestBatches:
    def test_empty_batch(self):
        assert exact_output_distributions([]) == []

    def test_shared_prefix_is_evolved_once(self, monkeypatch):
        rng = np.random.default_rng(21)
        base = _random_noisy_stream(rng, 3, length=12)
        tails = [_random_noisy_stream(rng, 3, length=3) for _ in range(2)]
        streams = [(base[:6] + tail, 3, [0, 1]) for tail in tails]
        streams.append((base, 3, [2]))
        applied = []
        apply = DensityMatrix.apply_noisy_op

        def spy(self, op):
            applied.append(op)
            apply(self, op)

        monkeypatch.setattr(DensityMatrix, "apply_noisy_op", spy)
        exact_output_distributions(streams)
        assert len(applied) == 6 + 3 + 3 + 6

    def test_oversized_stream_raises_before_any_state(self, monkeypatch):
        built = []
        init = DensityMatrix.__init__

        def spy(self, num_qubits):
            built.append(num_qubits)
            init(self, num_qubits)

        monkeypatch.setattr(DensityMatrix, "__init__", spy)
        streams = [([NoisyOp.gate("h", (0,))], 2, [0]),
                   ([NoisyOp.gate("x", (0,))], MAX_QUBITS + 1, [0])]
        with pytest.raises(ValueError, match="beyond 10 qubits"):
            exact_output_distributions(streams)
        assert built == []

    def test_copy_is_equal_and_independent(self):
        rho = DensityMatrix(3)
        for op in _random_noisy_stream(np.random.default_rng(9), 3):
            rho.apply_noisy_op(op)
        twin = rho.copy()
        assert np.array_equal(twin.matrix, rho.matrix)
        before = rho.matrix.copy()
        twin.apply_noisy_op(NoisyOp.gate("x", (1,), error_prob=0.1))
        assert np.array_equal(rho.matrix, before)
        assert not np.array_equal(twin.matrix, before)
