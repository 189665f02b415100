"""Tests for the noisy executor (hardware stand-in)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import QuantumCircuit
from repro.device.backend import NoisyBackend
from repro.device.topology import normalize_edge
from repro.obs.registry import get_registry
from repro.resilience import (
    BackendJobError,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.sim.channels import ReadoutModel, decay_probabilities
from repro.sim.density import (
    MAX_QUBITS,
    DensityMatrix,
    NoisyOp,
    exact_output_distribution,
)
from repro.transpiler.scheduling import asap_schedule


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

    @pytest.mark.parametrize("live", [MAX_QUBITS, MAX_QUBITS + 1])
    def test_active_qubit_cap(self, backend, live):
        """The cap bounds simultaneously live qubits: measured qubits stay
        live to the end, so ``live`` measured qubits need ``live`` slots."""
        circ = QuantumCircuit(20, live)
        for q in range(live):
            circ.x(q)
        for q in range(live):
            circ.measure(q, q)
        if live > MAX_QUBITS:
            with pytest.raises(ValueError, match="beyond 10 qubits"):
                backend.run(circ, shots=16)
        else:
            result = backend.run(circ, shots=16)
            assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_finished_qubits_do_not_count_toward_cap(self, backend,
                                                     poughkeepsie):
        """11 active qubits, of which only the measured one and one
        finished qubit at a time are live: two slots, exactly right."""
        circ = QuantumCircuit(20, 1)
        for q in range(MAX_QUBITS + 1):
            circ.x(q)
        circ.measure(0, 0)
        _, qubit_map, _ = backend.lower(backend.schedule_of(circ))
        assert len(set(qubit_map.values())) == 2
        result = backend.run(circ, shots=16, readout_error=False)
        p = poughkeepsie.calibration().single_qubit_error[0]
        assert result.probabilities[1] == pytest.approx(1.0 - 2.0 * p / 3.0,
                                                        abs=1e-12)

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


class TestMeasureTwice:
    """One qubit read into two clbits is rejected by name, on every path."""

    MESSAGE = r"qubit 3 is measured twice, into clbits 0 and 1"

    def circuit(self):
        circ = QuantumCircuit(20, 2).h(3)
        circ.measure(3, 0)
        circ.measure(3, 1)
        return circ

    def test_run(self, backend):
        with pytest.raises(ValueError, match=self.MESSAGE):
            backend.run(self.circuit(), shots=16)

    def test_run_schedule(self, backend):
        schedule = backend.schedule_of(self.circuit())
        with pytest.raises(ValueError, match=self.MESSAGE):
            backend.run_schedule(schedule, shots=16)

    def test_run_batch(self, backend):
        fine = QuantumCircuit(20, 1).x(2)
        fine.measure(2, 0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            backend.run_batch([fine, self.circuit()], shots=16)


def measured_x(qubit):
    circ = QuantumCircuit(20, 1).x(qubit)
    circ.measure(qubit, 0)
    return circ


class TestRunBatch:
    def batch(self):
        bell = QuantumCircuit(20, 2).h(0).cx(0, 1)
        bell.measure(0, 0)
        bell.measure(1, 1)
        return [bell, measured_x(3), parallel_pair_circuit(), measured_x(3)]

    def test_equals_one_run_per_circuit(self, backend):
        batch = backend.run_batch(self.batch(), shots=256, seed=4)
        alone = [backend.run(c, shots=256, seed=4) for c in self.batch()]
        assert len(batch) == len(alone)
        for got, want in zip(batch, alone):
            assert np.array_equal(got.probabilities, want.probabilities)
            assert got.counts == want.counts
            assert got.measured_qubits == want.measured_qubits
            assert got.schedule.makespan() == want.schedule.makespan()

    def test_counts_circuits_and_times_one_job(self, backend):
        registry = get_registry()
        runs = registry.counter("backend.runs").snapshot()
        jobs = registry.histogram("backend.run_seconds").count
        backend.run_batch(self.batch(), shots=16)
        assert registry.counter("backend.runs").snapshot() == runs + 4
        assert registry.histogram("backend.run_seconds").count == jobs + 1

    def test_every_circuit_must_measure(self, backend):
        with pytest.raises(ValueError, match="no measurements"):
            backend.run_batch([measured_x(3), QuantumCircuit(20).h(0)])

    def test_oversized_circuit_fails_before_any_evolution(self, backend,
                                                          monkeypatch):
        wide = QuantumCircuit(20, MAX_QUBITS + 1)
        for q in range(MAX_QUBITS + 1):
            wide.x(q)
            wide.measure(q, q)
        applied = []
        monkeypatch.setattr(DensityMatrix, "apply_noisy_op",
                            lambda self, op: applied.append(op))
        with pytest.raises(ValueError, match="beyond 10 qubits"):
            backend.run_batch([measured_x(3), wide], shots=16)
        assert applied == []

    def test_batch_is_one_job_and_retry_resubmits_it(self, poughkeepsie):
        plan = FaultPlan.single("job_rejection", site="backend.job")
        faulted = NoisyBackend(poughkeepsie, seed=5,
                               faults=FaultInjector(plan))
        with pytest.raises(BackendJobError):
            faulted.run_batch(self.batch(), shots=64)
        assert len(faulted.faults.injected) == 1

        injector = FaultInjector(plan)
        retried = NoisyBackend(poughkeepsie, seed=5, faults=injector,
                               retry=RetryPolicy.fast(max_attempts=2))
        got = retried.run_batch(self.batch(), shots=64)
        assert len(injector.injected) == 1
        clean = NoisyBackend(poughkeepsie, seed=5).run_batch(self.batch(),
                                                             shots=64)
        assert [r.counts for r in got] == [r.counts for r in clean]


# ----------------------------------------------------------------------
# Slot lowering against the reference it replaced: one simulator qubit per
# active device qubit, held for the whole run.
# ----------------------------------------------------------------------
def reference_probabilities(backend, schedule, readout_error):
    cal = backend.device.calibration(backend.day)
    active = schedule.circuit.active_qubits()
    index = {q: i for i, q in enumerate(active)}
    rates = backend.gate_error_rates(schedule)
    ordered = sorted((op for op in schedule if not op.instruction.is_barrier),
                     key=lambda op: (op.start, op.index))
    last_end, events, measures = {}, [], []
    for op in ordered:
        instr = op.instruction
        for q in instr.qubits:
            if q in last_end and op.start > last_end[q] + 1e-9:
                gamma, p_z = decay_probabilities(op.start - last_end[q],
                                                 cal.t1[q], cal.t2[q])
                events.append(NoisyOp.decay(index[q], gamma, p_z))
            last_end[q] = op.end
        if instr.is_measure:
            measures.append((instr.clbit, instr.qubits[0]))
        elif instr.name != "delay":
            events.append(NoisyOp.gate(
                instr.name, tuple(index[q] for q in instr.qubits),
                instr.params, error_prob=rates.get(op.index, 0.0)))
    measured = [index[q] for _, q in sorted(measures)]
    readout = None
    if readout_error:
        errs = tuple(cal.readout_error[q] for q in active)
        readout = ReadoutModel(errs, errs)
    return exact_output_distribution(events, len(active), measured, readout)


def peak_live_qubits(schedule):
    """Most qubits live at one step of the time-ordered walk: from a
    qubit's first operation to its last, or to the end once measured."""
    ordered = sorted((op for op in schedule if not op.instruction.is_barrier),
                     key=lambda op: (op.start, op.index))
    first, last = {}, {}
    for pos, op in enumerate(ordered):
        for q in op.instruction.qubits:
            first.setdefault(q, pos)
            last[q] = len(ordered) if op.instruction.is_measure else pos
    return max(sum(first[q] <= pos <= last[q] for q in first)
               for pos in range(len(ordered)))


#: A Poughkeepsie path: SWAP-like chains along it finish their early qubits.
PATH = (0, 1, 2, 3, 4, 9, 8, 7)


def early_finishing_circuit(rng):
    """Random gates along :data:`PATH`, drifting down it so early qubits
    finish; one to three of the later qubits are measured."""
    circ = QuantumCircuit(20, 3)
    low = 0
    for _ in range(int(rng.integers(6, 30))):
        low = min(low + int(rng.random() < 0.3), len(PATH) - 2)
        i = int(rng.integers(low, min(low + 3, len(PATH) - 1)))
        r = rng.random()
        if r < 0.1:
            circ.barrier(PATH[i], PATH[i + 1])
        elif r < 0.2:
            circ.add("delay", PATH[i], params=(float(rng.uniform(50, 600)),))
        elif r < 0.35:
            circ.rz(float(rng.uniform(0, 2 * np.pi)), PATH[i])
        elif r < 0.55:
            circ.sx(PATH[i])
        else:
            circ.cx(PATH[i], PATH[i + 1])
    measured = rng.choice(np.arange(low, len(PATH)),
                          size=min(int(rng.integers(1, 4)), len(PATH) - low),
                          replace=False)
    for clbit, i in enumerate(measured):
        circ.measure(PATH[int(i)], clbit)
    return circ


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_slot_lowering_matches_one_slot_per_active_qubit(poughkeepsie, seed):
    backend = NoisyBackend(poughkeepsie, seed=5)
    circ = early_finishing_circuit(np.random.default_rng(seed))
    durations = backend.device.calibration().durations
    for schedule in (backend.schedule_of(circ), asap_schedule(circ, durations)):
        _, qubit_map, _ = backend.lower(schedule)
        assert len(set(qubit_map.values())) == peak_live_qubits(schedule)
        for readout_error in (False, True):
            probs = backend.run_schedule(schedule, shots=8,
                                         readout_error=readout_error)
            reference = reference_probabilities(backend, schedule,
                                                readout_error)
            assert np.max(np.abs(probs.probabilities - reference)) < 1e-12


class TestSlotLowering:
    def chain(self):
        """A CNOT chain 0-1-2-3 measuring only qubit 3."""
        circ = QuantumCircuit(20, 1).x(0)
        circ.cx(0, 1).cx(1, 2).cx(2, 3)
        circ.measure(3, 0)
        return circ

    def test_finished_qubits_free_their_slots(self, backend):
        sched = backend.schedule_of(self.chain())
        _, qubit_map, _ = backend.lower(sched)
        assert peak_live_qubits(sched) == 2
        assert len(set(qubit_map.values())) == 2
        assert qubit_map[2] == qubit_map[0]
        assert qubit_map[3] == qubit_map[1]

    def test_reused_slot_is_reset_before_first_gate(self, backend):
        events, qubit_map, _ = backend.lower(
            backend.schedule_of(self.chain()))
        assert qubit_map == {0: 0, 1: 1, 2: 0, 3: 1}
        # Contiguous chain: no idle decay, only the two resets on reuse.
        assert [(e.kind, e.name, e.qubits, e.gamma, e.p_z) for e in events] == [
            ("gate", "x", (0,), 0.0, 0.0),
            ("gate", "cx", (0, 1), 0.0, 0.0),
            ("decay", "", (0,), 1.0, 0.0),   # qubit 2 takes qubit 0's slot
            ("gate", "cx", (1, 0), 0.0, 0.0),
            ("decay", "", (1,), 1.0, 0.0),   # qubit 3 takes qubit 1's slot
            ("gate", "cx", (0, 1), 0.0, 0.0),
        ]

    def test_measured_qubits_keep_their_slots(self, backend):
        circ = QuantumCircuit(20, 3).cx(0, 1).cx(0, 5)
        circ.measure(0, 0)
        circ.measure(5, 1)
        _, qubit_map, _ = backend.lower(backend.schedule_of(circ))
        # qubit 1 finishes before 5 starts; 0 is measured and keeps its slot.
        assert qubit_map[5] == qubit_map[1] != qubit_map[0]
        circ.measure(1, 2)
        _, qubit_map, _ = backend.lower(backend.schedule_of(circ))
        assert sorted(qubit_map.values()) == [0, 1, 2]
