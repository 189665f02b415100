"""Tests for the shared experiment pipeline."""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.device.backend import NoisyBackend
from repro.experiments.common import (
    SCHEDULERS,
    ExperimentConfig,
    _insert_rotations_before_measures,
    distribution_as_dict,
    ground_truth_report,
    prepare_circuit,
    run_distribution,
    run_distributions,
    swap_error_rate,
    tomography_error,
)
from repro.metrics.tomography import (
    _basis_rotation,
    bell_state_vector,
    density_from_expectations,
    expectations_from_distributions,
    state_fidelity,
    tomography_settings,
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


# ----------------------------------------------------------------------
# Batched tomography against the reference it replaced: one backend run
# per basis setting.
# ----------------------------------------------------------------------
def setting_variants(backend, prepared, qubit_pair):
    qa, qb = qubit_pair
    variants = []
    for basis_a, basis_b in tomography_settings():
        rot = QuantumCircuit(backend.device.num_qubits)
        _basis_rotation(rot, qa, basis_a)
        _basis_rotation(rot, qb, basis_b)
        variants.append(
            _insert_rotations_before_measures(prepared, rot.instructions))
    return variants


def tomography_error_per_setting(backend, prepared, qubit_pair, config):
    dists = {
        setting: run_distribution(backend, variant, config)
        for setting, variant in zip(
            tomography_settings(),
            setting_variants(backend, prepared, qubit_pair))
    }
    rho = density_from_expectations(expectations_from_distributions(dists))
    return 1.0 - state_fidelity(rho, bell_state_vector())


@pytest.fixture(scope="module")
def case_study(poughkeepsie, pk_report):
    """The paper's case-study SWAP circuit under each scheduler."""
    bench = swap_benchmark(poughkeepsie.coupling, 0, 13,
                           path=(0, 5, 10, 11, 12, 13))
    prepared = {policy: prepare_circuit(policy, bench.circuit, poughkeepsie,
                                        pk_report)
                for policy in SCHEDULERS}
    return bench.meeting_pair, prepared


class TestBatchedTomography:
    @pytest.mark.parametrize("policy", SCHEDULERS)
    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("mitigate", [False, True])
    def test_equals_one_run_per_setting(self, poughkeepsie, case_study,
                                        policy, sampled, mitigate):
        pair, prepared = case_study
        backend = NoisyBackend(poughkeepsie, seed=3)
        config = ExperimentConfig(shots=1024, seed=17,
                                  use_sampled_counts=sampled,
                                  mitigate_readout=mitigate)
        batched = tomography_error(backend, prepared[policy], pair, config)
        reference = tomography_error_per_setting(backend, prepared[policy],
                                                 pair, config)
        assert batched == reference

    def test_run_batch_equals_separate_runs(self, poughkeepsie, case_study):
        pair, prepared = case_study
        backend = NoisyBackend(poughkeepsie, seed=3)
        variants = setting_variants(backend, prepared["XtalkSched"], pair)
        batch = backend.run_batch(variants, shots=512, seed=8)
        for variant, got in zip(variants, batch):
            alone = backend.run(variant, shots=512, seed=8)
            assert np.array_equal(got.probabilities, alone.probabilities)
            assert got.counts == alone.counts
            assert got.measured_qubits == alone.measured_qubits

    def test_run_distributions_keeps_input_order(self, poughkeepsie):
        backend = NoisyBackend(poughkeepsie, seed=1)
        circuits = []
        for q in (2, 7, 2):
            circ = QuantumCircuit(20, 1).x(q)
            circ.measure(q, 0)
            circuits.append(circ)
        config = ExperimentConfig(shots=256, use_sampled_counts=True)
        got = run_distributions(backend, circuits, config)
        for circ, probs in zip(circuits, got):
            assert np.array_equal(probs,
                                  run_distribution(backend, circ, config))
