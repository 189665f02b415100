"""Tests for the noisy executor (hardware stand-in)."""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.device.backend import NoisyBackend
from repro.device.topology import normalize_edge
from repro.sim.density import MAX_QUBITS


@pytest.fixture()
def backend(poughkeepsie):
    return NoisyBackend(poughkeepsie, seed=5)


def parallel_pair_circuit():
    """Two CNOTs on the planted high pair (5,10)|(11,12), then measure."""
    circ = QuantumCircuit(20, 2)
    circ.cx(5, 10)
    circ.cx(11, 12)
    circ.measure(10, 0)
    circ.measure(11, 1)
    return circ


class TestScheduling:
    def test_schedule_is_right_aligned_with_common_readout(self, backend):
        circ = QuantumCircuit(20, 2).h(0).cx(0, 1)
        circ.measure(0, 0)
        circ.measure(1, 1)
        sched = backend.schedule_of(circ)
        measures = [t for t in sched if t.instruction.is_measure]
        assert len({t.start for t in measures}) == 1

    def test_barriers_respected(self, backend):
        circ = QuantumCircuit(20, 2)
        circ.cx(5, 10)
        circ.barrier(5, 10, 11, 12)
        circ.cx(11, 12)
        circ.measure(10, 0)
        circ.measure(11, 1)
        sched = backend.schedule_of(circ)
        ops = {normalize_edge(t.instruction.qubits): t
               for t in sched.two_qubit_ops()}
        assert ops[(5, 10)].end <= ops[(11, 12)].start + 1e-6


class TestGateErrorRates:
    def test_parallel_high_pair_gets_conditional_rates(self, backend, poughkeepsie):
        sched = backend.schedule_of(parallel_pair_circuit())
        rates = backend.gate_error_rates(sched)
        cal = poughkeepsie.calibration()
        ops = {normalize_edge(t.instruction.qubits): t
               for t in sched.two_qubit_ops()}
        assert ops[(5, 10)].overlaps(ops[(11, 12)])
        assert rates[ops[(5, 10)].index] > 2 * cal.cnot_error_of(5, 10)
        assert rates[ops[(11, 12)].index] > 2 * cal.cnot_error_of(11, 12)

    def test_serialized_pair_gets_independent_rates(self, backend, poughkeepsie):
        circ = QuantumCircuit(20, 2)
        circ.cx(5, 10)
        circ.barrier(5, 10, 11, 12)
        circ.cx(11, 12)
        circ.measure(10, 0)
        circ.measure(11, 1)
        sched = backend.schedule_of(circ)
        rates = backend.gate_error_rates(sched)
        cal = poughkeepsie.calibration()
        for t in sched.two_qubit_ops():
            edge = normalize_edge(t.instruction.qubits)
            assert rates[t.index] == pytest.approx(cal.cnot_error_of(*edge))

    def test_far_parallel_gates_independent(self, backend, poughkeepsie):
        circ = QuantumCircuit(20, 2)
        circ.cx(0, 1)
        circ.cx(16, 17)
        circ.measure(0, 0)
        circ.measure(16, 1)
        sched = backend.schedule_of(circ)
        rates = backend.gate_error_rates(sched)
        cal = poughkeepsie.calibration()
        for t in sched.two_qubit_ops():
            edge = normalize_edge(t.instruction.qubits)
            assert rates[t.index] <= cal.cnot_error_of(*edge) * 1.2

    def test_single_qubit_rates(self, backend, poughkeepsie):
        circ = QuantumCircuit(20, 1).h(4)
        circ.measure(4, 0)
        sched = backend.schedule_of(circ)
        rates = backend.gate_error_rates(sched)
        cal = poughkeepsie.calibration()
        h_op = next(t for t in sched if t.instruction.name == "h")
        assert rates[h_op.index] == cal.single_qubit_error[4]


class TestLowering:
    def test_decay_events_only_for_idle_gaps(self, backend):
        circ = QuantumCircuit(20, 2)
        circ.h(5)
        circ.cx(5, 10)
        circ.measure(5, 0)
        circ.measure(10, 1)
        sched = backend.schedule_of(circ)
        events, qubit_map, measures = backend.lower(sched)
        gate_events = [e for e in events if e.kind == "gate"]
        assert len(gate_events) == 2  # h + cx; measures are not gate events
        assert measures == [(0, 5), (1, 10)]
        # contiguous schedule: no decay events expected here
        decay_events = [e for e in events if e.kind == "decay"]
        assert not decay_events

    def test_idle_window_produces_decay(self, backend):
        circ = QuantumCircuit(20, 2)
        circ.h(5)
        circ.cx(5, 10)
        circ.cx(5, 6)  # qubit 10 idles while this runs
        circ.measure(10, 0)
        circ.measure(5, 1)
        sched = backend.schedule_of(circ)
        events, qubit_map, _ = backend.lower(sched)
        decay_qubits = {e.qubits[0] for e in events if e.kind == "decay"}
        assert qubit_map[10] in decay_qubits

    def test_lower_compacts_qubits(self, backend):
        circ = QuantumCircuit(20, 2)
        circ.cx(16, 17)
        circ.measure(16, 0)
        circ.measure(17, 1)
        events, qubit_map, _ = backend.lower(backend.schedule_of(circ))
        assert set(qubit_map) == {16, 17}
        assert set(qubit_map.values()) == {0, 1}


class TestRun:
    def test_requires_measurement(self, backend):
        with pytest.raises(ValueError, match="measure"):
            backend.run(QuantumCircuit(20).h(0))

    @pytest.mark.parametrize("active", [MAX_QUBITS, MAX_QUBITS + 1])
    def test_active_qubit_cap(self, backend, active):
        circ = QuantumCircuit(20, 1)
        for q in range(active):
            circ.x(q)
        circ.measure(0, 0)
        if active > MAX_QUBITS:
            with pytest.raises(ValueError, match="beyond 10 qubits"):
                backend.run(circ, shots=16)
        else:
            result = backend.run(circ, shots=16)
            assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_counts_and_probabilities(self, backend):
        circ = QuantumCircuit(20, 1).x(3)
        circ.measure(3, 0)
        result = backend.run(circ, shots=256)
        assert sum(result.counts.values()) == 256
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-6)
        # dominated by "1" but readout error flips some
        assert result.counts.get("1", 0) > 200

    def test_readout_error_toggle(self, backend):
        circ = QuantumCircuit(20, 1).x(3)
        circ.measure(3, 0)
        clean = backend.run(circ, shots=512, readout_error=False)
        assert clean.probabilities[1] > 0.995

    def test_explicit_seed_drives_shot_sampling(self, backend):
        circ = QuantumCircuit(20, 2).h(0)
        circ.measure(0, 0)
        circ.measure(1, 1)

        def run(seed):
            return backend.run(circ, shots=2048, seed=seed)

        assert run(1).counts == run(1).counts
        assert run(1).counts != run(2).counts
        # The seed samples shots only: the distribution is exact.
        assert np.array_equal(run(1).probabilities, run(2).probabilities)

    def test_duration_reported(self, backend):
        circ = QuantumCircuit(20, 1).x(3)
        circ.measure(3, 0)
        result = backend.run(circ, shots=16)
        assert result.duration > 3000  # at least the readout duration

    def test_crosstalk_hurts_parallel_execution(self, backend):
        """The planted pair must measurably degrade parallel execution."""
        parallel = parallel_pair_circuit()
        serial = QuantumCircuit(20, 2)
        serial.cx(5, 10)
        serial.barrier(5, 10, 11, 12)
        serial.cx(11, 12)
        serial.measure(10, 0)
        serial.measure(11, 1)
        p_par = backend.run(parallel, shots=4096,
                            readout_error=False).probabilities
        p_ser = backend.run(serial, shots=4096,
                            readout_error=False).probabilities
        # ideal output is |00>; crosstalk reduces its probability
        assert p_ser[0] > p_par[0] + 0.02
