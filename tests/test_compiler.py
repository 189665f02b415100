"""Tests for the one-call compilation pipeline."""

import pytest

from repro import compile_circuit
from repro.circuit.circuit import QuantumCircuit
from repro.device.backend import NoisyBackend
from repro.device.topology import normalize_edge
from repro.sim.statevector import ideal_distribution
from repro.workloads.states import ghz_chain_circuit


def logical_circuit():
    """A logical circuit needing routing (0 and 13 are far apart)."""
    circ = QuantumCircuit(20, 2)
    circ.h(0)
    circ.cx(0, 13)
    circ.measure(0, 0)
    circ.measure(13, 1)
    return circ


class TestCompile:
    def test_routes_and_lowers(self, poughkeepsie, pk_report):
        result = compile_circuit(logical_circuit(), poughkeepsie, pk_report)
        for instr in result.circuit:
            if instr.is_two_qubit:
                assert instr.name == "cx"
                assert poughkeepsie.coupling.has_edge(*instr.qubits)
        assert result.duration > 0
        assert len(result.layout) == 20

    def test_all_schedulers(self, poughkeepsie, pk_report):
        durations = {}
        for scheduler in ("par", "serial", "disable", "xtalk"):
            result = compile_circuit(logical_circuit(), poughkeepsie,
                                     pk_report, scheduler=scheduler)
            durations[scheduler] = result.duration
            assert result.scheduler == scheduler
        assert durations["par"] <= durations["xtalk"]
        assert durations["xtalk"] <= durations["serial"]

    def test_xtalk_requires_report(self, poughkeepsie):
        with pytest.raises(ValueError, match="report"):
            compile_circuit(logical_circuit(), poughkeepsie, scheduler="xtalk")

    def test_unknown_scheduler(self, poughkeepsie, pk_report):
        with pytest.raises(ValueError, match="unknown scheduler"):
            compile_circuit(logical_circuit(), poughkeepsie, pk_report,
                            scheduler="magic")

    def test_serialized_pairs_exposed(self, poughkeepsie, pk_report):
        circ = QuantumCircuit(20, 2)
        circ.cx(5, 10)
        circ.cx(11, 12)
        circ.measure(10, 0)
        circ.measure(11, 1)
        result = compile_circuit(circ, poughkeepsie, pk_report)
        assert result.serialized_pairs
        par = compile_circuit(circ, poughkeepsie, pk_report, scheduler="par")
        assert par.serialized_pairs == ()

    def test_compiled_circuit_executes(self, poughkeepsie, pk_report):
        result = compile_circuit(logical_circuit(), poughkeepsie, pk_report)
        backend = NoisyBackend(poughkeepsie, seed=4)
        execution = backend.run(result.circuit, shots=512)
        assert sum(execution.counts.values()) == 512
        # Bell state: correlated outcomes dominate
        correlated = execution.counts.get("00", 0) + execution.counts.get("11", 0)
        assert correlated > 350

    def test_initial_layout(self, poughkeepsie, pk_report):
        circ = ghz_chain_circuit(4)
        circ.num_clbits = 4
        for q in range(4):
            circ.measure(q, q)
        result = compile_circuit(circ, poughkeepsie, pk_report,
                                 initial_layout=[5, 10, 11, 12])
        used = {q for i in result.circuit for q in i.qubits
                if not i.is_barrier}
        assert used <= {5, 10, 11, 12}

    def test_semantics_preserved_noiselessly(self, poughkeepsie, pk_report):
        circ = ghz_chain_circuit(3)
        circ.num_clbits = 3
        for q in range(3):
            circ.measure(q, q)
        result = compile_circuit(circ, poughkeepsie, pk_report,
                                 initial_layout=[0, 1, 2])
        from repro.transpiler.barriers import strip_barriers

        dist = ideal_distribution(strip_barriers(result.circuit))
        assert set(dist) == {"000", "111"}
