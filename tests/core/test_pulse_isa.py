"""Tests for the pulse-level ISA scheduling mode (paper footnote 2)."""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.scheduling.xtalk import XtalkScheduler
from repro.device.backend import NoisyBackend
from repro.device.topology import normalize_edge
from repro.workloads.swap import swap_benchmark


def pair_circuit():
    circ = QuantumCircuit(20, 2)
    circ.cx(5, 10)
    circ.cx(11, 12)
    circ.measure(10, 0)
    circ.measure(11, 1)
    return circ


class TestPulseScheduling:
    def test_isa_validated(self, poughkeepsie, pk_report):
        with pytest.raises(ValueError, match="isa"):
            XtalkScheduler(poughkeepsie.calibration(), pk_report,
                           isa="microwave")

    def test_no_barriers_emitted(self, poughkeepsie, pk_report):
        scheduler = XtalkScheduler(poughkeepsie.calibration(), pk_report,
                                   omega=0.5, isa="pulse")
        result = scheduler.schedule(pair_circuit())
        assert not any(i.is_barrier for i in result.circuit)
        assert result.serialized_pairs  # still chose to serialize

    def test_intended_schedule_separates_pair(self, poughkeepsie, pk_report):
        scheduler = XtalkScheduler(poughkeepsie.calibration(), pk_report,
                                   omega=0.5, isa="pulse")
        result = scheduler.schedule(pair_circuit())
        ops = {normalize_edge(t.instruction.qubits): t
               for t in result.intended_schedule.two_qubit_ops()}
        assert not ops[(5, 10)].overlaps(ops[(11, 12)])

    def test_run_schedule_executes_intended_times(self, poughkeepsie,
                                                  pk_report):
        scheduler = XtalkScheduler(poughkeepsie.calibration(), pk_report,
                                   omega=0.5, isa="pulse")
        result = scheduler.schedule(pair_circuit())
        backend = NoisyBackend(poughkeepsie, seed=7)
        execution = backend.run_schedule(result.intended_schedule, shots=256)
        assert sum(execution.counts.values()) == 256
        # executed verbatim: the result's schedule IS the intended one
        assert execution.schedule is result.intended_schedule

    def test_run_schedule_requires_measurements(self, poughkeepsie,
                                                pk_report):
        from repro.device.calibration import GateDurations
        from repro.transpiler.schedule import Schedule

        circ = QuantumCircuit(20).h(0)
        sched = Schedule(circ, poughkeepsie.calibration().durations, [0.0])
        backend = NoisyBackend(poughkeepsie)
        with pytest.raises(ValueError, match="measure"):
            backend.run_schedule(sched)

    def test_pulse_error_rates_match_intended_overlaps(self, poughkeepsie,
                                                       pk_report):
        """With pulse execution, the charged rates follow the intended
        schedule's overlaps — serialization pays off without barriers."""
        backend = NoisyBackend(poughkeepsie)
        cal = poughkeepsie.calibration()
        scheduler = XtalkScheduler(cal, pk_report, omega=0.5, isa="pulse")
        result = scheduler.schedule(pair_circuit())
        rates = backend.gate_error_rates(result.intended_schedule)
        for t in result.intended_schedule.two_qubit_ops():
            edge = normalize_edge(t.instruction.qubits)
            assert rates[t.index] == pytest.approx(cal.cnot_error_of(*edge))

    def test_pulse_duration_not_worse_than_barrier(self, poughkeepsie,
                                                   pk_report):
        """Barrier realization can only add coarse constraints; the pulse
        intended schedule is never longer on the case-study circuit."""
        bench = swap_benchmark(poughkeepsie.coupling, 0, 13,
                               path=(0, 5, 10, 11, 12, 13))
        cal = poughkeepsie.calibration()
        backend = NoisyBackend(poughkeepsie)
        pulse = XtalkScheduler(cal, pk_report, omega=0.5, isa="pulse")
        barrier = XtalkScheduler(cal, pk_report, omega=0.5, isa="barrier")
        pulse_dur = pulse.schedule(bench.circuit).intended_schedule.makespan()
        barrier_dur = backend.schedule_of(
            barrier.schedule(bench.circuit).circuit
        ).makespan()
        assert pulse_dur <= barrier_dur + 1e-6
