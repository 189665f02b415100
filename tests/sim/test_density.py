"""Tests for the exact density-matrix engine, cross-validating the
Monte-Carlo trajectory executor against its channel-exact limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.channels import ReadoutModel, decay_probabilities
from repro.sim.density import DensityMatrix, exact_output_distribution
from repro.sim.statevector import Statevector
from repro.sim.trajectory import BatchedTrajectorySimulator, NoisyOp
from repro.sim.unitaries import gate_unitary


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
            DensityMatrix(11)

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


class TestTrajectoryCrossValidation:
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

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_trajectory_converges_to_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = 2
        ops = self._random_stream(rng, n, 10)
        exact = exact_output_distribution(ops, n, list(range(n)))
        sim = BatchedTrajectorySimulator(n, seed=seed + 1)
        sampled = sim.output_distribution(ops, list(range(n)),
                                          trajectories=3000)
        assert np.abs(exact - sampled).max() < 0.05

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
