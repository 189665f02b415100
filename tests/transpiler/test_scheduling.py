"""Tests for ASAP/ALAP/serial scheduling and the hardware-timing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDag
from repro.device.calibration import GateDurations
from repro.transpiler.scheduling import (
    alap_schedule,
    asap_schedule,
    fully_barriered,
    hardware_schedule,
    serial_schedule,
)

DUR = GateDurations(single_qubit=50.0, cx={}, measurement=1000.0, default_cx=200.0)


def measured_pair_circuit():
    circ = QuantumCircuit(4, 2)
    circ.h(0)
    circ.cx(0, 1)
    circ.cx(2, 3)
    circ.measure(1, 0)
    circ.measure(3, 1)
    return circ


class TestAsap:
    def test_respects_dependencies(self):
        circ = measured_pair_circuit()
        sched = asap_schedule(circ, DUR)
        assert sched.validate_dependencies(CircuitDag(circ))

    def test_starts_at_zero(self):
        circ = measured_pair_circuit()
        sched = asap_schedule(circ, DUR)
        assert min(t.start for t in sched) == 0.0

    def test_chain_timing(self):
        circ = QuantumCircuit(1).h(0).x(0).z(0)
        sched = asap_schedule(circ, DUR)
        assert [t.start for t in sched] == [0.0, 50.0, 100.0]


class TestAlap:
    def test_measures_aligned(self):
        circ = measured_pair_circuit()
        sched = alap_schedule(circ, DUR)
        measures = [t for t in sched if t.instruction.is_measure]
        assert len({t.start for t in measures}) == 1

    def test_right_alignment_pushes_gates_late(self):
        circ = measured_pair_circuit()
        asap = asap_schedule(circ, DUR)
        alap = alap_schedule(circ, DUR)
        # the short chain's cx starts later under ALAP
        cx23_asap = next(t for t in asap if t.instruction.qubits == (2, 3))
        cx23_alap = next(t for t in alap if t.instruction.qubits == (2, 3))
        assert cx23_alap.start > cx23_asap.start

    def test_makespan_not_stretched(self):
        circ = measured_pair_circuit()
        assert alap_schedule(circ, DUR).makespan() == pytest.approx(
            asap_schedule(circ, DUR).makespan()
        )

    def test_dependencies_still_valid(self):
        circ = measured_pair_circuit()
        sched = alap_schedule(circ, DUR)
        assert sched.validate_dependencies(CircuitDag(circ))

    def test_without_alignment(self):
        circ = measured_pair_circuit()
        sched = alap_schedule(circ, DUR, align_measurements=False)
        assert sched.validate_dependencies(CircuitDag(circ))


class TestSerial:
    def test_no_two_qubit_overlaps(self):
        circ = measured_pair_circuit()
        sched = serial_schedule(circ, DUR)
        assert sched.overlapping_two_qubit_pairs() == ()

    def test_gates_strictly_sequential(self):
        circ = measured_pair_circuit()
        sched = serial_schedule(circ, DUR)
        gates = sorted(
            (t for t in sched if not t.instruction.is_measure),
            key=lambda t: t.start,
        )
        for prev, nxt in zip(gates, gates[1:]):
            assert nxt.start >= prev.end - 1e-9

    def test_measures_simultaneous_at_end(self):
        circ = measured_pair_circuit()
        sched = serial_schedule(circ, DUR)
        measures = [t for t in sched if t.instruction.is_measure]
        gate_end = max(t.end for t in sched if not t.instruction.is_measure)
        for m in measures:
            assert m.start == pytest.approx(gate_end)

    def test_longest_makespan(self):
        circ = measured_pair_circuit()
        assert serial_schedule(circ, DUR).makespan() >= \
            hardware_schedule(circ, DUR).makespan()


class TestHardwareSchedule:
    def test_barriers_enforce_order(self):
        circ = QuantumCircuit(4, 2)
        circ.cx(0, 1)
        circ.barrier(0, 1, 2, 3)
        circ.cx(2, 3)
        circ.measure(1, 0)
        circ.measure(3, 1)
        sched = hardware_schedule(circ, DUR)
        cx01 = next(t for t in sched if t.instruction.qubits == (0, 1))
        cx23 = next(t for t in sched if t.instruction.qubits == (2, 3))
        assert cx01.end <= cx23.start + 1e-9

    def test_without_barriers_gates_overlap(self):
        circ = measured_pair_circuit()
        sched = hardware_schedule(circ, DUR)
        assert sched.overlapping_two_qubit_pairs() == ((1, 2),)


class TestFullyBarriered:
    def test_serializes_everything(self):
        circ = measured_pair_circuit()
        serial = fully_barriered(circ)
        sched = hardware_schedule(serial, DUR)
        assert sched.overlapping_two_qubit_pairs() == ()

    def test_measures_kept_at_end(self):
        circ = measured_pair_circuit()
        serial = fully_barriered(circ)
        names = [i.name for i in serial]
        assert names[-2:] == ["measure", "measure"]

    def test_gate_multiset_preserved(self):
        circ = measured_pair_circuit()
        serial = fully_barriered(circ)
        original = [i for i in circ if not i.is_barrier]
        kept = [i for i in serial if not i.is_barrier]
        assert sorted(i.name for i in original) == sorted(i.name for i in kept)


def random_measured_circuit(rng, num_qubits, num_gates):
    circ = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        r = rng.random()
        if r < 0.1:
            size = int(rng.integers(1, num_qubits + 1))
            qubits = rng.choice(num_qubits, size=size, replace=False)
            circ.barrier(*(int(q) for q in qubits))
        elif r < 0.5:
            circ.h(int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, 2, replace=False)
            circ.cx(int(a), int(b))
    for q in range(num_qubits):
        circ.measure(q, q)
    return circ


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_all_schedulers_respect_dependencies(seed):
    rng = np.random.default_rng(seed)
    circ = random_measured_circuit(rng, 4, 20)
    dag = CircuitDag(circ)
    for scheduler in (asap_schedule, alap_schedule, hardware_schedule):
        assert scheduler(circ, DUR).validate_dependencies(dag)
    assert serial_schedule(circ, DUR).validate_dependencies(dag)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_alap_never_earlier_than_asap(seed):
    rng = np.random.default_rng(seed)
    circ = random_measured_circuit(rng, 4, 15)
    asap = asap_schedule(circ, DUR)
    alap = alap_schedule(circ, DUR)
    for a, l in zip(asap, alap):
        if a.instruction.is_directive:
            continue
        assert l.start >= a.start - 1e-6


# ----------------------------------------------------------------------
# Oracle: the DAG-based passes the program-order ones replaced.  Start
# times must match them bitwise, not within a tolerance.
# ----------------------------------------------------------------------
def reference_asap(circuit, durations):
    dag = CircuitDag(circuit)
    start = [0.0] * len(circuit)
    for idx in dag.topological_order():
        preds = dag.predecessors(idx)
        if preds:
            start[idx] = max(
                start[p] + durations.of(circuit[p]) for p in preds
            )
    return start


def reference_alap(circuit, durations, align_measurements=True):
    dag = CircuitDag(circuit)
    asap = reference_asap(circuit, durations)
    measure_indices = [i for i, ins in enumerate(circuit) if ins.is_measure]
    if align_measurements and measure_indices:
        readout_start = max(asap[i] for i in measure_indices)
        horizon = readout_start
    else:
        readout_start = None
        horizon = max(s + durations.of(ins) for s, ins in zip(asap, circuit))
    start = [0.0] * len(circuit)
    for idx in reversed(dag.topological_order()):
        instr = circuit[idx]
        dur = durations.of(instr)
        if instr.is_measure and readout_start is not None:
            start[idx] = readout_start
            continue
        succs = dag.successors(idx)
        if succs:
            start[idx] = min(start[s] for s in succs) - dur
        else:
            start[idx] = horizon - dur
    for idx, instr in enumerate(circuit):
        if instr.is_directive and start[idx] < 0.0:
            start[idx] = 0.0
    shift = -min(start) if min(start) < 0.0 else 0.0
    return [s + shift for s in start]


#: Durations whose sums round, so a changed operation order would show.
ODD_DUR = GateDurations(single_qubit=35.5555555555, measurement=3546.6666667,
                        cx={(0, 1): 241.77777777, (1, 2): 412.3333333,
                            (2, 3): 305.1111111}, default_cx=373.7777777)


def oracle_circuit(rng, num_qubits, num_gates, measures):
    """Gates, delays and barriers; ``measures`` measure ops into at most
    two clbits, so several land on one clbit; 0 gives no measurement."""
    circ = QuantumCircuit(num_qubits, 2)
    for _ in range(num_gates):
        r = rng.random()
        if r < 0.15:
            size = int(rng.integers(1, num_qubits + 1))
            qubits = rng.choice(num_qubits, size=size, replace=False)
            circ.barrier(*(int(q) for q in qubits))
        elif r < 0.25:
            circ.add("delay", int(rng.integers(num_qubits)),
                     params=(float(rng.uniform(10.0, 900.0)),))
        elif r < 0.55:
            circ.h(int(rng.integers(num_qubits)))
        elif r < 0.65 and measures:
            circ.measure(int(rng.integers(num_qubits)),
                         int(rng.integers(2)))
        else:
            a, b = rng.choice(num_qubits, 2, replace=False)
            circ.cx(int(a), int(b))
    for _ in range(measures):
        circ.measure(int(rng.integers(num_qubits)), int(rng.integers(2)))
    return circ


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000), num_gates=st.integers(1, 30),
       measures=st.integers(0, 4))
def test_program_order_passes_match_dag_oracle_bitwise(seed, num_gates,
                                                       measures):
    rng = np.random.default_rng(seed)
    circ = oracle_circuit(rng, 4, num_gates, measures)
    for durations in (DUR, ODD_DUR):
        assert list(asap_schedule(circ, durations).start_times) == \
            reference_asap(circ, durations)
        for align in (True, False):
            assert list(alap_schedule(circ, durations, align_measurements=align)
                        .start_times) == reference_alap(circ, durations, align)
        assert list(hardware_schedule(circ, durations).start_times) == \
            reference_alap(circ, durations, True)


def test_empty_circuit_gives_empty_schedules():
    circ = QuantumCircuit(3, 1)
    for scheduler in (asap_schedule, alap_schedule, hardware_schedule):
        sched = scheduler(circ, DUR)
        assert len(sched) == 0
        assert sched.makespan() == 0.0
