"""Tests for the success predictor and omega auto-tuning."""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.scheduling.baselines import par_sched, serial_sched
from repro.core.scheduling.predictor import (
    OmegaChoice,
    predict_success,
    tune_omega,
)
from repro.device.backend import NoisyBackend
from repro.experiments.common import (
    ExperimentConfig,
    ground_truth_report,
    prepare_circuit,
    swap_error_rate,
)
from repro.transpiler.scheduling import hardware_schedule
from repro.workloads.swap import swap_benchmark


def pair_circuit():
    circ = QuantumCircuit(20, 2)
    circ.cx(5, 10)
    circ.cx(11, 12)
    circ.measure(10, 0)
    circ.measure(11, 1)
    return circ


class TestPredictSuccess:
    def test_breakdown_multiplies(self, poughkeepsie, pk_report):
        cal = poughkeepsie.calibration()
        hw = hardware_schedule(pair_circuit(), cal.durations)
        pred = predict_success(hw, cal, pk_report)
        assert pred.total == pytest.approx(
            pred.gate_success * pred.decoherence_success * pred.readout_success
        )
        assert 0.0 < pred.total < 1.0

    def test_overlapping_high_pair_predicted_worse(self, poughkeepsie,
                                                   pk_report):
        cal = poughkeepsie.calibration()
        parallel = hardware_schedule(pair_circuit(), cal.durations)
        serial = hardware_schedule(serial_sched(pair_circuit()), cal.durations)
        p_par = predict_success(parallel, cal, pk_report)
        p_ser = predict_success(serial, cal, pk_report)
        assert p_ser.gate_success > p_par.gate_success

    def test_readout_toggle(self, poughkeepsie, pk_report):
        cal = poughkeepsie.calibration()
        hw = hardware_schedule(pair_circuit(), cal.durations)
        with_ro = predict_success(hw, cal, pk_report, include_readout=True)
        without = predict_success(hw, cal, pk_report, include_readout=False)
        assert without.readout_success == 1.0
        assert with_ro.readout_success < 1.0

    def test_prediction_tracks_measurement(self, poughkeepsie, pk_report):
        """Predicted ordering of schedules must match measured ordering."""
        cal = poughkeepsie.calibration()
        backend = NoisyBackend(poughkeepsie)
        bench = swap_benchmark(poughkeepsie.coupling, 0, 13,
                               path=(0, 5, 10, 11, 12, 13))
        config = ExperimentConfig(seed=3)
        measured = {}
        predicted = {}
        for scheduler in ("ParSched", "XtalkSched"):
            prepared = prepare_circuit(scheduler, bench.circuit, poughkeepsie,
                                       pk_report)
            hw = backend.schedule_of(prepared)
            predicted[scheduler] = predict_success(hw, cal, pk_report).total
            measured[scheduler], _ = swap_error_rate(
                backend, bench, scheduler, pk_report, config
            )
        # higher predicted success <=> lower measured error
        assert (predicted["XtalkSched"] > predicted["ParSched"]) == \
            (measured["XtalkSched"] < measured["ParSched"])


class TestExplainSchedule:
    def test_lists_crosstalk_culprit(self, poughkeepsie, pk_report):
        from repro.core.scheduling.predictor import explain_schedule

        cal = poughkeepsie.calibration()
        hw = hardware_schedule(pair_circuit(), cal.durations)
        text = explain_schedule(hw, cal, pk_report)
        assert "crosstalk with cx(11, 12)" in text or \
            "crosstalk with cx(5, 10)" in text
        assert "predicted success" in text

    def test_serial_schedule_has_no_culprits(self, poughkeepsie, pk_report):
        from repro.core.scheduling.predictor import explain_schedule

        cal = poughkeepsie.calibration()
        hw = hardware_schedule(serial_sched(pair_circuit()), cal.durations)
        text = explain_schedule(hw, cal, pk_report)
        assert "crosstalk with" not in text

    def test_top_limits_output(self, poughkeepsie, pk_report):
        from repro.core.scheduling.predictor import explain_schedule

        cal = poughkeepsie.calibration()
        hw = hardware_schedule(pair_circuit(), cal.durations)
        text = explain_schedule(hw, cal, pk_report, top=1)
        body = [l for l in text.splitlines() if l.startswith("  ")]
        assert len(body) <= 2  # one entry + possible "... and N smaller"


class TestTuneOmega:
    def test_returns_best_of_sweep(self, poughkeepsie, pk_report):
        cal = poughkeepsie.calibration()
        choice = tune_omega(pair_circuit(), cal, pk_report,
                            omegas=(0.0, 0.35, 1.0))
        assert isinstance(choice, OmegaChoice)
        assert len(choice.sweep) == 3
        best_sweep = max(choice.sweep, key=lambda t: t[1])
        assert choice.omega == best_sweep[0]
        assert choice.prediction.total == pytest.approx(best_sweep[1])

    def test_crosstalk_circuit_prefers_nonzero_omega(self, poughkeepsie,
                                                     pk_report):
        cal = poughkeepsie.calibration()
        bench = swap_benchmark(poughkeepsie.coupling, 0, 13,
                               path=(0, 5, 10, 11, 12, 13))
        choice = tune_omega(bench.circuit, cal, pk_report,
                            omegas=(0.0, 0.35, 0.75))
        assert choice.omega > 0.0
        assert choice.scheduled.serialized_pairs
