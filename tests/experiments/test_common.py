"""Tests for the shared experiment pipeline."""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.device.backend import NoisyBackend
from repro.experiments.common import (
    ExperimentConfig,
    distribution_as_dict,
    ground_truth_report,
    prepare_circuit,
    run_distribution,
    swap_error_rate,
)
from repro.workloads.swap import swap_benchmark


class TestGroundTruthReport:
    def test_covers_all_edges(self, poughkeepsie, pk_report):
        assert set(pk_report.independent) == set(poughkeepsie.coupling.edges)

    def test_covers_one_hop_pairs_both_directions(self, poughkeepsie, pk_report):
        one_hop = poughkeepsie.coupling.one_hop_gate_pairs()
        assert len(pk_report.conditional) == 2 * len(one_hop)

    def test_high_pairs_match_planted(self, poughkeepsie, pk_report):
        assert set(pk_report.high_pairs()) == set(poughkeepsie.true_high_pairs())


class TestPrepareCircuit:
    def _circuit(self):
        circ = QuantumCircuit(20, 2)
        circ.cx(5, 10)
        circ.cx(11, 12)
        circ.measure(10, 0)
        circ.measure(11, 1)
        return circ

    def test_dispatch(self, poughkeepsie, pk_report):
        circ = self._circuit()
        par = prepare_circuit("ParSched", circ, poughkeepsie, pk_report)
        serial = prepare_circuit("SerialSched", circ, poughkeepsie, pk_report)
        xtalk = prepare_circuit("XtalkSched", circ, poughkeepsie, pk_report)
        assert not any(i.is_barrier for i in par)
        assert any(i.is_barrier for i in serial)
        assert any(i.is_barrier for i in xtalk)

    def test_unknown_scheduler(self, poughkeepsie, pk_report):
        with pytest.raises(ValueError, match="unknown scheduler"):
            prepare_circuit("MagicSched", self._circuit(), poughkeepsie,
                            pk_report)


class TestRunDistribution:
    def test_normalized(self, poughkeepsie, fast_experiment_config):
        backend = NoisyBackend(poughkeepsie, seed=1)
        circ = QuantumCircuit(20, 1).x(2)
        circ.measure(2, 0)
        probs = run_distribution(backend, circ, fast_experiment_config)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert probs[1] > 0.9

    def test_mitigation_recovers_ideal(self, poughkeepsie):
        config = ExperimentConfig(shots=2048, mitigate_readout=True,
                                  use_sampled_counts=False)
        backend = NoisyBackend(poughkeepsie, seed=1)
        circ = QuantumCircuit(20, 1).x(2)
        circ.measure(2, 0)
        probs = run_distribution(backend, circ, config)
        # Readout mitigation on an exact distribution inverts exactly,
        # leaving the X gate's depolarizing error: 2 of its 3 Paulis flip.
        p = poughkeepsie.calibration(0).single_qubit_error[2]
        assert probs[1] == pytest.approx(1.0 - 2.0 * p / 3.0, abs=1e-12)

    def test_distribution_as_dict(self):
        probs = np.array([0.5, 0.0, 0.25, 0.25])
        d = distribution_as_dict(probs)
        assert d == {"00": 0.5, "10": 0.25, "11": 0.25}


class TestSwapErrorRate:
    def test_returns_error_and_duration(self, poughkeepsie, pk_report,
                                        fast_experiment_config):
        backend = NoisyBackend(poughkeepsie, seed=1)
        bench = swap_benchmark(poughkeepsie.coupling, 5, 12)
        err, dur = swap_error_rate(backend, bench, "ParSched", pk_report,
                                   fast_experiment_config)
        assert 0.0 <= err <= 1.0
        assert dur > 0
