"""Results must not depend on worker count or submission order.

Fanning work over a process pool is purely a wall-time optimization.
Characterization reports, executed distributions, and tomography errors
are *identical* — bitwise, where floats are concerned — for every worker
count.
"""

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.core.characterization.campaign import (
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.device.backend import NoisyBackend
from repro.experiments.common import (
    ExperimentConfig,
    ground_truth_report,
    prepare_circuit,
    run_distribution,
    tomography_error,
)
from repro.rb.executor import RBConfig, RBExecutor
from repro.workloads.swap import swap_benchmark

_TINY_RB = RBConfig(lengths=(2, 6, 14), num_sequences=2)


class TestExecutorOrderIndependence:
    def test_experiment_result_ignores_prior_experiments(self, poughkeepsie):
        a, b = ((0, 1), (2, 3)), ((5, 6), (7, 8))
        ex1 = RBExecutor(poughkeepsie, day=0, config=_TINY_RB, seed=9)
        ex2 = RBExecutor(poughkeepsie, day=0, config=_TINY_RB, seed=9)
        first_a = ex1.run_units([a])
        ex2.run_units([b])  # different history before measuring `a`
        second_a = ex2.run_units([a])
        assert first_a.survivals == second_a.survivals
        for t in a:
            assert first_a.error_rate(t) == second_a.error_rate(t)


class TestCampaignWorkerIndependence:
    def test_reports_identical_across_worker_counts(self, poughkeepsie):
        campaign = CharacterizationCampaign(
            poughkeepsie, rb_config=_TINY_RB, seed=3
        )
        serial = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, workers=1)
        pooled = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, workers=4)
        assert serial.report.independent == pooled.report.independent
        assert serial.report.conditional == pooled.report.conditional

    def test_trace_reports_parallel_counters(self, poughkeepsie):
        campaign = CharacterizationCampaign(
            poughkeepsie, rb_config=_TINY_RB, seed=3
        )
        outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, workers=2)
        span = outcome.trace.span("pair_srb")
        (fanout,) = span.children
        assert fanout.name == "parallel.map[characterize[one_hop_packed]]"
        assert fanout.counters["parallel.map.workers"] == 2.0
        assert fanout.counters["parallel.map.tasks"] >= 1.0
        assert span.counters["rb.experiments"] >= 1.0


class TestBackendWorkerIndependence:
    def _bell(self, device):
        qc = QuantumCircuit(device.num_qubits, 2, "bell")
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0, 0)
        qc.measure(1, 1)
        return qc

    def test_probabilities_bitwise_identical(self, poughkeepsie):
        circuit = self._bell(poughkeepsie)
        results = [
            run_distribution(
                NoisyBackend(poughkeepsie, day=0, seed=11, workers=workers),
                circuit, ExperimentConfig(shots=128, workers=workers),
            )
            for workers in (1, 2)
        ]
        assert np.array_equal(results[0], results[1])


class TestTomographyWorkerIndependence:
    def test_error_identical_across_worker_counts(self, poughkeepsie):
        report = ground_truth_report(poughkeepsie)
        bench = swap_benchmark(poughkeepsie.coupling, 0, 8)
        backend = NoisyBackend(poughkeepsie, day=0)
        config = ExperimentConfig(shots=128)
        prepared = prepare_circuit(
            "ParSched", bench.circuit, poughkeepsie, report
        )
        serial = tomography_error(
            backend, prepared, bench.meeting_pair, config, workers=1
        )
        pooled = tomography_error(
            backend, prepared, bench.meeting_pair, config, workers=2
        )
        assert serial == pooled
