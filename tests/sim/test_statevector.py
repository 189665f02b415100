"""Unit and property tests for the statevector engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import QuantumCircuit
from repro.device.presets import ibm_hummingbird_65q
from repro.sim.statevector import (
    Statevector,
    ideal_distribution,
    simulate_statevector,
)
from repro.sim.unitaries import gate_unitary
from repro.workloads.qaoa import QAOA_REGIONS, qaoa_ansatz, qaoa_on_region


class TestBasics:
    def test_initial_state(self):
        sv = Statevector(3)
        assert np.isclose(abs(sv.vector[0]), 1.0)
        assert np.isclose(sv.norm(), 1.0)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            Statevector(0)
        with pytest.raises(ValueError):
            Statevector(25)

    def test_from_vector_round_trip(self):
        vec = np.zeros(8)
        vec[5] = 1.0  # |101> : q0=1, q2=1
        sv = Statevector.from_vector(vec)
        assert np.allclose(sv.vector, vec)
        assert sv.probability_of_one(0) == pytest.approx(1.0)
        assert sv.probability_of_one(1) == pytest.approx(0.0)
        assert sv.probability_of_one(2) == pytest.approx(1.0)

    def test_from_vector_bad_length(self):
        with pytest.raises(ValueError):
            Statevector.from_vector(np.ones(3))


class TestGateApplication:
    def test_x_flips(self):
        sv = Statevector(2)
        sv.apply_gate("x", [1])
        assert np.isclose(abs(sv.vector[2]), 1.0)

    def test_matrix_shape_checked(self):
        sv = Statevector(2)
        with pytest.raises(ValueError):
            sv.apply_matrix(np.eye(2), [0, 1])

    def test_duplicate_qubits_rejected(self):
        sv = Statevector(2)
        with pytest.raises(ValueError):
            sv.apply_matrix(np.eye(4), [0, 0])

    def test_cx_control_is_first_operand(self):
        sv = Statevector(2)
        sv.apply_gate("x", [0])
        sv.apply_gate("cx", [0, 1])
        assert np.isclose(abs(sv.vector[3]), 1.0)
        sv2 = Statevector(2)
        sv2.apply_gate("x", [1])
        sv2.apply_gate("cx", [0, 1])
        assert np.isclose(abs(sv2.vector[2]), 1.0)  # control 0 unset

    def test_nonadjacent_two_qubit_gate(self):
        sv = Statevector(3)
        sv.apply_gate("x", [2])
        sv.apply_gate("cx", [2, 0])
        assert np.isclose(abs(sv.vector[5]), 1.0)  # q0 and q2 set

    def test_matches_explicit_full_matrix(self, rng):
        # Apply a random 2q unitary on qubits (2, 0) of 3 and compare with
        # a manually-built 8x8 operator.
        from scipy.stats import unitary_group

        u = unitary_group.rvs(4, random_state=1234)
        sv = Statevector(3)
        for q in range(3):
            sv.apply_gate("h", [q])
        sv.apply_matrix(u, [2, 0])

        full = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            b0, b1, b2 = i & 1, (i >> 1) & 1, (i >> 2) & 1
            col_in = b2 + 2 * b0  # little-endian over (q2, q0)
            for out in range(4):
                o2, o0 = out & 1, (out >> 1) & 1
                j = o0 + 2 * b1 + 4 * o2
                full[j, i] = u[out, col_in]
        expected = full @ (np.ones(8) / np.sqrt(8))
        assert np.allclose(sv.vector, expected)


class TestMeasurement:
    def test_probabilities_subset_order(self):
        sv = Statevector(2)
        sv.apply_gate("x", [1])
        assert np.allclose(sv.probabilities([1]), [0, 1])
        assert np.allclose(sv.probabilities([0]), [1, 0])
        assert np.allclose(sv.probabilities([1, 0]), [0, 1, 0, 0])

    def test_project_collapses(self):
        sv = Statevector(1)
        sv.apply_gate("h", [0])
        sv.project(0, 1)
        assert np.isclose(abs(sv.vector[1]), 1.0)

    def test_measure_statistics(self):
        rng = np.random.default_rng(0)
        ones = 0
        for _ in range(200):
            sv = Statevector(1, rng)
            sv.apply_gate("h", [0])
            ones += sv.measure(0)
        assert 60 < ones < 140

    def test_bell_measurements_correlated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sv = Statevector(2, rng)
            sv.apply_gate("h", [0])
            sv.apply_gate("cx", [0, 1])
            assert sv.measure(0) == sv.measure(1)

    def test_sample_counts_keys(self):
        sv = Statevector(2)
        sv.apply_gate("x", [0])
        counts = sv.sample_counts(100)
        # q0=1 should be rightmost bit
        assert counts == {"01": 100}

    def test_fidelity(self):
        a = Statevector(2)
        b = Statevector(2)
        assert a.fidelity(b) == pytest.approx(1.0)
        b.apply_gate("x", [0])
        assert a.fidelity(b) == pytest.approx(0.0)

    def test_density_matrix(self):
        sv = Statevector(1)
        sv.apply_gate("h", [0])
        rho = sv.density_matrix()
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))


class TestCircuitSimulation:
    def test_ghz_distribution(self):
        circ = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        circ.measure_all()
        dist = ideal_distribution(circ)
        assert set(dist) == {"000", "111"}
        assert dist["000"] == pytest.approx(0.5)

    def test_distribution_uses_measured_qubits(self):
        circ = QuantumCircuit(3, 1).x(2).measure(2, 0)
        dist = ideal_distribution(circ)
        assert dist == {"1": pytest.approx(1.0)}

    def test_out_of_range_qubits_rejected(self):
        circ = QuantumCircuit(3).h(0)
        with pytest.raises(ValueError):
            ideal_distribution(circ, qubits=[0, 3])

    def test_barriers_and_measures_skipped(self):
        circ = QuantumCircuit(2, 2).h(0).barrier().measure(0, 0)
        state = simulate_statevector(circ)
        assert np.isclose(state.norm(), 1.0)


_GATES_1Q = ["h", "x", "y", "z", "s", "t", "sx"]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_circuits_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    sv = Statevector(n)
    for _ in range(30):
        if n >= 2 and rng.random() < 0.4:
            a, b = rng.choice(n, 2, replace=False)
            sv.apply_gate(["cx", "cz", "swap"][rng.integers(3)], [int(a), int(b)])
        else:
            sv.apply_gate(_GATES_1Q[rng.integers(len(_GATES_1Q))],
                          [int(rng.integers(n))])
    assert np.isclose(sv.norm(), 1.0, atol=1e-9)
    probs = sv.probabilities()
    assert np.isclose(probs.sum(), 1.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_probabilities_marginalize_consistently(seed):
    rng = np.random.default_rng(seed)
    sv = Statevector(3)
    for _ in range(15):
        if rng.random() < 0.5:
            a, b = rng.choice(3, 2, replace=False)
            sv.apply_gate("cx", [int(a), int(b)])
        else:
            sv.apply_gate("h", [int(rng.integers(3))])
    joint = sv.probabilities([0, 1, 2])
    for q in range(3):
        marginal = sv.probabilities([q])
        from_joint = np.zeros(2)
        for i, p in enumerate(joint):
            from_joint[(i >> q) & 1] += p
        assert np.allclose(marginal, from_joint, atol=1e-9)


def _full_register_distribution(circuit, qubits=None):
    """Reference for :func:`ideal_distribution`: simulate every qubit of
    the circuit's register, touched by a gate or not."""
    if qubits is None:
        measured = sorted((instr.clbit, instr.qubits[0])
                          for instr in circuit if instr.is_measure)
        qubits = [q for _, q in measured] or list(range(circuit.num_qubits))
    probs = simulate_statevector(circuit).probabilities(qubits)
    n = len(qubits)
    return {format(i, f"0{n}b"): float(p)
            for i, p in enumerate(probs) if p > 1e-12}


def _assert_same_distribution(got, expected):
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert abs(got[key] - value) <= 1e-12, key


@st.composite
def _sparse_circuits(draw):
    """A 12-20-qubit circuit whose gates touch at most 6 qubits, with
    barriers, measurements into permuted clbits (one of them of a qubit no
    gate touches) and an untouched qubit to request by ``qubits=``."""
    num_qubits = draw(st.integers(12, 20))
    touched = draw(st.lists(st.integers(0, num_qubits - 1), min_size=1,
                            max_size=6, unique=True))
    untouched = [q for q in range(num_qubits) if q not in touched]
    idle = draw(st.sampled_from(untouched))
    measured = draw(st.lists(st.sampled_from(touched), unique=True)) + [idle]
    clbits = draw(st.permutations(range(len(measured))))
    circuit = QuantumCircuit(num_qubits, len(measured))
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["1q", "rotation", "2q", "barrier"]))
        if kind == "1q":
            circuit.add(draw(st.sampled_from(_GATES_1Q)),
                        draw(st.sampled_from(touched)))
        elif kind == "rotation":
            angle = draw(st.floats(0.0, 2 * np.pi))
            circuit.add(draw(st.sampled_from(["rx", "ry", "rz"])),
                        draw(st.sampled_from(touched)), params=(angle,))
        elif kind == "2q" and len(touched) >= 2:
            pair = draw(st.lists(st.sampled_from(touched), min_size=2,
                                 max_size=2, unique=True))
            circuit.add(draw(st.sampled_from(["cx", "cz", "swap"])), *pair)
        elif kind == "barrier":
            circuit.barrier(*draw(st.lists(st.integers(0, num_qubits - 1),
                                           unique=True)))
    for qubit, clbit in zip(measured, clbits):
        circuit.measure(qubit, clbit)
    extra = draw(st.sampled_from(untouched))
    requested = draw(st.lists(
        st.sampled_from([q for q in range(num_qubits) if q != extra]),
        max_size=3, unique=True))
    return circuit, draw(st.permutations(requested + [extra]))


class TestTouchedQubitsOnly:
    @settings(max_examples=25, deadline=None)
    @given(case=_sparse_circuits())
    def test_matches_full_register(self, case):
        circuit, requested = case
        _assert_same_distribution(ideal_distribution(circuit),
                                  _full_register_distribution(circuit))
        _assert_same_distribution(
            ideal_distribution(circuit, qubits=requested),
            _full_register_distribution(circuit, qubits=requested))

    @pytest.mark.parametrize("region", QAOA_REGIONS)
    def test_qaoa_regions_bitwise(self, poughkeepsie, region):
        circuit = qaoa_on_region(poughkeepsie.coupling, region, seed=7)
        assert ideal_distribution(circuit) == \
            _full_register_distribution(circuit)

    def test_65_qubit_heavy_hex_region(self):
        coupling = ibm_hummingbird_65q().coupling
        region = coupling.shortest_path(8, 30)
        assert len(region) == 10
        placed = qaoa_on_region(coupling, region, seed=3)
        with pytest.raises(ValueError):
            Statevector(placed.num_qubits)
        logical = qaoa_ansatz(len(region), seed=3).measure_all()
        _assert_same_distribution(ideal_distribution(placed),
                                  _full_register_distribution(logical))
