"""End-to-end pipeline integration tests.

These exercise the full Figure 2 flow: characterize -> schedule -> execute
-> mitigate -> score, asserting the paper's headline orderings with
statistics sized for CI.
"""

import numpy as np
import pytest

from repro.core.characterization.campaign import (
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.core.scheduling.xtalk import XtalkScheduler
from repro.device.backend import NoisyBackend
from repro.experiments.common import (
    ExperimentConfig,
    ground_truth_report,
    swap_error_rate,
)
from repro.rb.executor import RBConfig
from repro.workloads.swap import swap_benchmark


@pytest.fixture(scope="module")
def solid_config():
    return ExperimentConfig(shots=2048, seed=9,
                            use_sampled_counts=False)


class TestHeadlineResult:
    """XtalkSched beats both baselines on the paper's case-study circuit."""

    @pytest.fixture(scope="class")
    def case_study_errors(self, poughkeepsie, pk_report):
        config = ExperimentConfig(shots=2048, seed=9,
                                  use_sampled_counts=False)
        backend = NoisyBackend(poughkeepsie)
        bench = swap_benchmark(poughkeepsie.coupling, 0, 13,
                               path=(0, 5, 10, 11, 12, 13))
        return {
            scheduler: swap_error_rate(backend, bench, scheduler, pk_report,
                                       config)
            for scheduler in ("SerialSched", "ParSched", "XtalkSched")
        }

    def test_xtalk_beats_parsched(self, case_study_errors):
        assert case_study_errors["XtalkSched"][0] < \
            case_study_errors["ParSched"][0] - 0.02

    def test_xtalk_beats_serialsched(self, case_study_errors):
        assert case_study_errors["XtalkSched"][0] < \
            case_study_errors["SerialSched"][0]

    def test_duration_tradeoff(self, case_study_errors):
        dur = {k: v[1] for k, v in case_study_errors.items()}
        assert dur["ParSched"] < dur["XtalkSched"] < dur["SerialSched"]
        # the paper's "modest increase": well under SerialSched's cost
        assert dur["XtalkSched"] / dur["ParSched"] < 1.5


class TestMeasuredCharacterizationDrivesScheduling:
    """The full loop with *measured* (not ground-truth) characterization."""

    def test_end_to_end(self, poughkeepsie):
        rb_config = RBConfig(lengths=(2, 4, 8, 16, 28, 40), num_sequences=10,
                             samples_per_sequence=24)
        campaign = CharacterizationCampaign(poughkeepsie, rb_config=rb_config,
                                            seed=3)
        outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED)
        report = outcome.report

        # the measured report must drive the same serialization decision
        scheduler = XtalkScheduler(poughkeepsie.calibration(), report,
                                   omega=0.5)
        bench = swap_benchmark(poughkeepsie.coupling, 0, 13,
                               path=(0, 5, 10, 11, 12, 13))
        result = scheduler.schedule(bench.circuit)
        assert result.candidate_pairs  # found the (5,10)|(11,12) region
        assert result.serialized_pairs

        config = ExperimentConfig(shots=1024, seed=4,
                                  use_sampled_counts=False)
        backend = NoisyBackend(poughkeepsie)
        err_x, _ = swap_error_rate(backend, bench, "XtalkSched", report, config)
        err_p, _ = swap_error_rate(backend, bench, "ParSched", report, config)
        assert err_x < err_p


class TestAllDevices:
    """The headline ordering must hold on all three device models."""

    @pytest.mark.parametrize("device_index", [0, 1, 2])
    def test_xtalk_beats_parsched_everywhere(self, devices, device_index):
        from repro.workloads.swap import (
            crosstalk_affected_endpoints,
            crosstalk_route,
        )

        device = devices[device_index]
        report = ground_truth_report(device)
        backend = NoisyBackend(device)
        config = ExperimentConfig(shots=1024, seed=13,
                                  use_sampled_counts=False)
        (s, d) = crosstalk_affected_endpoints(
            device.coupling, report.high_pairs()
        )[0]
        route = crosstalk_route(device.coupling, s, d, report.high_pairs())
        bench = swap_benchmark(device.coupling, s, d, path=route)
        err_x, dur_x = swap_error_rate(backend, bench, "XtalkSched", report,
                                       config)
        err_p, dur_p = swap_error_rate(backend, bench, "ParSched", report,
                                       config)
        assert err_x < err_p, device.name
        assert dur_x <= dur_p * 1.8, device.name


class TestDailyWorkflow:
    """Optimization 3's daily loop: refresh high pairs, reuse the rest."""

    def test_high_only_day_two(self, poughkeepsie, pk_report):
        rb_config = RBConfig(lengths=(2, 4, 8, 16, 28, 40), num_sequences=10,
                             samples_per_sequence=24)
        campaign = CharacterizationCampaign(poughkeepsie,
                                            rb_config=rb_config, seed=6)
        outcome = campaign.run(CharacterizationPolicy.HIGH_ONLY, day=2,
                               prior=pk_report)
        # dramatically cheaper than the 1-hop campaign
        one_hop = campaign.plan(CharacterizationPolicy.ONE_HOP)
        assert outcome.num_experiments < one_hop.num_experiments / 3
        # and still knows all planted pairs
        detected = set(outcome.report.high_pairs())
        assert set(poughkeepsie.true_high_pairs()) <= detected
