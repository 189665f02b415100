"""Shared fixtures.

Heavy objects (the 11520-element Clifford group, device presets, ground
truth reports) are session-scoped; RB/experiment configs are sized for test
speed, with correctness asserted through loose-but-meaningful tolerances.
"""

import numpy as np
import pytest

from repro.device.presets import (
    all_devices,
    ibmq_boeblingen,
    ibmq_johannesburg,
    ibmq_poughkeepsie,
)
from repro.experiments.common import ExperimentConfig, ground_truth_report
from repro.rb.executor import RBConfig


@pytest.fixture(scope="session")
def poughkeepsie():
    return ibmq_poughkeepsie()


@pytest.fixture(scope="session")
def johannesburg():
    return ibmq_johannesburg()


@pytest.fixture(scope="session")
def boeblingen():
    return ibmq_boeblingen()


@pytest.fixture(scope="session")
def devices():
    return all_devices()


@pytest.fixture(scope="session")
def pk_report(poughkeepsie):
    """Ground-truth (perfect) characterization of Poughkeepsie."""
    return ground_truth_report(poughkeepsie)


@pytest.fixture(scope="session")
def clifford_2q():
    from repro.rb.clifford import clifford_group

    return clifford_group(2)


@pytest.fixture(scope="session")
def clifford_1q():
    from repro.rb.clifford import clifford_group

    return clifford_group(1)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def fast_rb_config():
    return RBConfig(lengths=(2, 6, 14), num_sequences=3, samples_per_sequence=8)


@pytest.fixture()
def fast_experiment_config():
    return ExperimentConfig(shots=512, seed=11)
