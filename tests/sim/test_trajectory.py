"""Noise physics of the lowered noisy event stream (:class:`NoisyOp`).

Each stream runs through the exact channel
(:func:`~repro.sim.density.exact_output_distribution`), so the expected
values hold to rounding error.
"""

import math

import pytest

from repro.sim.channels import ReadoutModel, decay_probabilities
from repro.sim.density import NoisyOp, exact_output_distribution


class TestNoisyOp:
    def test_gate_constructor(self):
        op = NoisyOp.gate("cx", (0, 1), error_prob=0.1)
        assert op.kind == "gate"
        assert op.error_prob == 0.1

    def test_decay_constructor(self):
        op = NoisyOp.decay(2, 0.05, 0.01)
        assert op.kind == "decay"
        assert op.qubits == (2,)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            NoisyOp("noise", (0,))

    def test_decay_single_qubit_only(self):
        with pytest.raises(ValueError):
            NoisyOp("decay", (0, 1))

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            NoisyOp.gate("x", (0,), error_prob=1.5)
        with pytest.raises(ValueError):
            NoisyOp.decay(0, -0.1, 0.0)


class TestNoiselessExecution:
    def test_bell_distribution(self):
        ops = [NoisyOp.gate("h", (0,)), NoisyOp.gate("cx", (0, 1))]
        probs = exact_output_distribution(ops, 2, [0, 1])
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[3] == pytest.approx(0.5, abs=1e-12)


class TestNoisePhysics:
    def test_t1_decay_converges_to_exponential(self):
        t1 = 50e3
        duration = 50e3
        gamma, p_z = decay_probabilities(duration, t1, 2 * t1)
        ops = [NoisyOp.gate("x", (0,)), NoisyOp.decay(0, gamma, p_z)]
        probs = exact_output_distribution(ops, 1, [0])
        assert probs[1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_dephasing_destroys_coherence_not_population(self):
        # |+> under pure dephasing keeps P(1) = 0.5 but loses <X>.
        ops = [NoisyOp.gate("h", (0,)), NoisyOp.decay(0, 0.0, 0.5),
               NoisyOp.gate("h", (0,))]
        probs = exact_output_distribution(ops, 1, [0])
        # p_z = 0.5 means fully dephased: H|+/-> mixture -> uniform
        assert probs[1] == pytest.approx(0.5, abs=1e-12)

    def test_depolarizing_rate_on_identity_gate(self):
        p = 0.3
        ops = [NoisyOp.gate("id", (0,), error_prob=p)]
        probs = exact_output_distribution(ops, 1, [0])
        # error applies X, Y, or Z with equal chance; 2/3 of errors flip.
        assert probs[1] == pytest.approx(p * 2 / 3, abs=1e-12)

    def test_two_qubit_depolarizing_spreads(self):
        p = 1.0  # always an error
        ops = [NoisyOp.gate("cx", (0, 1), error_prob=p)]
        probs = exact_output_distribution(ops, 2, [0, 1])
        # 15 Paulis uniformly: 00 remains only for ZI, IZ, ZZ -> 3/15
        assert probs[0] == pytest.approx(3 / 15, abs=1e-12)

    def test_decay_on_ground_state_is_identity(self):
        ops = [NoisyOp.decay(0, 0.9, 0.0)]
        probs = exact_output_distribution(ops, 1, [0])
        assert probs[0] == pytest.approx(1.0, abs=1e-12)


class TestReadout:
    def test_readout_applied_to_distribution(self):
        ro = ReadoutModel.uniform(1, 0.1)
        probs = exact_output_distribution(
            [NoisyOp.gate("x", (0,))], 1, [0], readout=ro
        )
        assert probs[0] == pytest.approx(0.1, abs=1e-12)
        assert probs[1] == pytest.approx(0.9, abs=1e-12)

    def test_readout_restricted_to_measured_qubits(self):
        ro = ReadoutModel((0.0, 0.25), (0.0, 0.25))
        probs = exact_output_distribution(
            [NoisyOp.gate("x", (1,))], 2, [1], readout=ro
        )
        assert probs[0] == pytest.approx(0.25, abs=1e-12)
