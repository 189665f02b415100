"""Tests for readout-error mitigation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.device.backend import NoisyBackend
from repro.metrics.readout import (
    measure_readout_model,
    mitigate_counts,
    mitigate_distribution,
)
from repro.sim.channels import ReadoutModel


class TestMitigateDistribution:
    def test_exact_inversion(self):
        ro = ReadoutModel.uniform(2, 0.06)
        confusion = ro.confusion_matrix([0, 1])
        true = np.array([0.5, 0.0, 0.0, 0.5])
        measured = confusion @ true
        recovered = mitigate_distribution(measured, confusion)
        assert np.allclose(recovered, true, atol=1e-9)

    def test_identity_confusion_noop(self):
        probs = np.array([0.25, 0.75])
        out = mitigate_distribution(probs, np.eye(2))
        assert np.allclose(out, probs)

    def test_clips_to_simplex(self):
        # measured distribution inconsistent with the confusion matrix
        ro = ReadoutModel.uniform(1, 0.2)
        confusion = ro.confusion_matrix([0])
        measured = np.array([0.05, 0.95])  # "too pure" for 20% error
        recovered = mitigate_distribution(measured, confusion)
        assert recovered.min() >= 0.0
        assert recovered.sum() == pytest.approx(1.0)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            mitigate_distribution(np.array([1.0, 0.0]), np.eye(4))


class TestMitigateCounts:
    def test_round_trip(self):
        ro = ReadoutModel.uniform(6, 0.0)
        out = mitigate_counts({"0": 30, "1": 70}, [5], ro)
        assert out[1] == pytest.approx(0.7)

    def test_with_noise(self):
        ro = ReadoutModel.uniform(2, 0.1)
        true = np.array([0.8, 0.0, 0.0, 0.2])
        measured = ro.confusion_matrix([0, 1]) @ true
        counts = {format(i, "02b"): int(round(p * 10_000))
                  for i, p in enumerate(measured)}
        out = mitigate_counts(counts, [0, 1], ro)
        assert np.allclose(out, true, atol=1e-3)


class TestMeasuredModel:
    def test_recovers_device_readout(self, poughkeepsie):
        backend = NoisyBackend(poughkeepsie, seed=3)
        cal = poughkeepsie.calibration()
        measured = measure_readout_model(backend, [4, 7], shots=4096)
        assert measured.p1_given_0[0] == pytest.approx(
            cal.readout_error[4], abs=0.02
        )
        assert measured.p0_given_1[1] == pytest.approx(
            cal.readout_error[7], abs=0.02
        )


def test_import_path_leaves_optimizer_out():
    """Exact mitigation never reaches the least-squares fallback, so
    importing the experiment layer must not import ``scipy.optimize``
    (``test_clips_to_simplex`` covers the fallback itself)."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, repro.experiments.common; "
            "print('scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "False"
