"""Tests for characterization campaign planning and execution."""

import pytest

import repro.core.characterization.campaign as campaign_mod
import repro.parallel.engine as engine_mod
import repro.pipeline.cache as cache_mod
from repro.core.characterization.campaign import (
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.core.characterization.cost import PAPER_COST_MODEL
from repro.experiments.common import ground_truth_report
from repro.rb.executor import RBConfig, RBExecutor, normalize_target
from repro.resilience import FatalTaskError, FaultInjector, FaultPlan


@pytest.fixture()
def campaign(poughkeepsie, fast_rb_config):
    return CharacterizationCampaign(poughkeepsie, rb_config=fast_rb_config, seed=2)


class TestPlanning:
    def test_all_pairs_counts(self, campaign):
        plan = campaign.plan(CharacterizationPolicy.ALL_PAIRS)
        # 221 pairs + 23 independent experiments on Poughkeepsie
        assert len(plan.pair_experiments) == 221
        assert len(plan.independent_experiments) == 23
        assert plan.num_experiments == 244

    def test_one_hop_reduction(self, campaign):
        all_pairs = campaign.plan(CharacterizationPolicy.ALL_PAIRS)
        one_hop = campaign.plan(CharacterizationPolicy.ONE_HOP)
        # Optimization 1: ~5x fewer pair experiments
        assert len(one_hop.pair_experiments) * 4 < len(all_pairs.pair_experiments)

    def test_packing_reduction(self, campaign):
        one_hop = campaign.plan(CharacterizationPolicy.ONE_HOP)
        packed = campaign.plan(CharacterizationPolicy.ONE_HOP_PACKED)
        assert packed.num_experiments < one_hop.num_experiments / 1.7
        # same units measured
        assert packed.units_measured() == one_hop.units_measured()

    def test_high_only_needs_prior(self, campaign):
        with pytest.raises(ValueError, match="prior"):
            campaign.plan(CharacterizationPolicy.HIGH_ONLY)

    def test_high_only_counts(self, campaign, poughkeepsie, pk_report):
        plan = campaign.plan(CharacterizationPolicy.HIGH_ONLY, prior=pk_report)
        assert plan.units_measured() == len(pk_report.high_pairs())
        packed = campaign.plan(CharacterizationPolicy.ONE_HOP_PACKED)
        assert plan.num_experiments < packed.num_experiments

    def test_policy_ordering_matches_figure10(self, campaign, pk_report):
        counts = []
        for policy in (
            CharacterizationPolicy.ALL_PAIRS,
            CharacterizationPolicy.ONE_HOP,
            CharacterizationPolicy.ONE_HOP_PACKED,
            CharacterizationPolicy.HIGH_ONLY,
        ):
            prior = pk_report if policy is CharacterizationPolicy.HIGH_ONLY else None
            counts.append(campaign.plan(policy, prior=prior).num_experiments)
        assert counts == sorted(counts, reverse=True)

    def test_total_reduction_in_paper_band(self, campaign, pk_report):
        baseline = campaign.plan(CharacterizationPolicy.ALL_PAIRS).num_experiments
        final = campaign.plan(
            CharacterizationPolicy.HIGH_ONLY, prior=pk_report
        ).num_experiments
        assert 20 <= baseline / final <= 80  # paper: 35-73x across devices


class TestCostModel:
    def test_paper_baseline_hours(self, campaign):
        plan = campaign.plan(CharacterizationPolicy.ALL_PAIRS)
        hours = PAPER_COST_MODEL.hours(plan.num_experiments)
        assert hours > 8.0  # "over 8 hours"

    def test_final_policy_under_30_minutes(self, campaign, pk_report):
        plan = campaign.plan(CharacterizationPolicy.HIGH_ONLY, prior=pk_report)
        assert PAPER_COST_MODEL.minutes(plan.num_experiments) < 30.0

    def test_executions_match_paper_scale(self, campaign):
        plan = campaign.plan(CharacterizationPolicy.ALL_PAIRS)
        executions = PAPER_COST_MODEL.executions(plan.num_experiments)
        assert 15_000_000 < executions < 30_000_000  # paper: 22.6M


class TestExecution:
    def test_high_only_run_merges_prior(self, poughkeepsie, fast_rb_config,
                                        pk_report):
        campaign = CharacterizationCampaign(
            poughkeepsie, rb_config=fast_rb_config, seed=2
        )
        outcome = campaign.run(
            CharacterizationPolicy.HIGH_ONLY, day=1, prior=pk_report
        )
        report = outcome.report
        # all prior measurements still present
        assert len(report.conditional) >= len(pk_report.conditional)
        # refreshed pairs measured on day 1
        assert report.day == 1

    def test_one_hop_packed_run_finds_planted_pairs(self, poughkeepsie):
        config = RBConfig(lengths=(2, 4, 8, 16, 28, 40), num_sequences=10,
                          samples_per_sequence=24)
        campaign = CharacterizationCampaign(poughkeepsie, rb_config=config, seed=3)
        outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED)
        detected = set(outcome.report.high_pairs())
        planted = set(poughkeepsie.true_high_pairs())
        # every planted pair detected (false positives tolerated: the
        # paper's 3x cut has the same property under measurement noise)
        assert planted <= detected


_TINY_RB = RBConfig(lengths=(2, 6, 14), num_sequences=2)
_STAGE_COUNTERS = ("rb.experiments", "rb.units", "rb.targets",
                   "rb.sequences")


def _fresh_executor_task(executor, experiment):
    """Reference task: one new executor per experiment, whose counters
    are then that experiment's cost alone."""
    fresh = RBExecutor(executor.device, day=executor.day,
                       config=executor.config, seed=executor.base_seed)
    result = fresh.run_units(experiment)
    rates = {normalize_target(gate): result.error_rate(gate)
             for unit in experiment for gate in unit}
    return rates, fresh.counters


def _summary(outcome):
    """The report plus each stage span's ``rb.*`` work counters."""
    stages = {
        record.name: {name: record.counters.get(name)
                      for name in _STAGE_COUNTERS}
        for record in outcome.trace.spans
        if record.name in ("independent_rb", "pair_srb")
    }
    return outcome.report.to_json(), stages


class TestOneExecutorPerCampaign:
    def test_one_fingerprint_and_one_executor(self, poughkeepsie,
                                              monkeypatch):
        fingerprints = []
        executors = []
        fingerprint = cache_mod.device_fingerprint
        init = RBExecutor.__init__

        def counted_fingerprint(device):
            fingerprints.append(device.name)
            return fingerprint(device)

        def counted_init(self, *args, **kwargs):
            executors.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cache_mod, "device_fingerprint",
                            counted_fingerprint)
        monkeypatch.setattr(RBExecutor, "__init__", counted_init)
        outcome = CharacterizationCampaign(
            poughkeepsie, rb_config=_TINY_RB, seed=4, workers=1,
        ).run(CharacterizationPolicy.ONE_HOP_PACKED)
        assert outcome.num_experiments > 1
        assert len(fingerprints) == 1
        assert len(executors) == 1

    @pytest.fixture(scope="class")
    def reference(self, poughkeepsie):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaign_mod, "_campaign_experiment_task",
                          _fresh_executor_task)
            return _summary(CharacterizationCampaign(
                poughkeepsie, rb_config=_TINY_RB, seed=4, workers=1,
            ).run(CharacterizationPolicy.ONE_HOP_PACKED, day=1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_fresh_executor_per_experiment(
            self, poughkeepsie, reference, workers, monkeypatch):
        # No probe: at two workers every task crosses the pool, each
        # worker running its own copy of the shipped executor.
        monkeypatch.setattr(engine_mod, "MIN_PARALLEL_SECONDS", 0.0)
        outcome = CharacterizationCampaign(
            poughkeepsie, rb_config=_TINY_RB, seed=4, workers=workers,
        ).run(CharacterizationPolicy.ONE_HOP_PACKED, day=1)
        assert _summary(outcome) == reference
        assert reference[1]["pair_srb"]["rb.experiments"] == len(
            outcome.plan.pair_experiments)

    def test_matches_fresh_executor_across_resume(
            self, poughkeepsie, reference, tmp_path):
        path = str(tmp_path / "campaign.ckpt.jsonl")
        campaign = CharacterizationCampaign(
            poughkeepsie, rb_config=_TINY_RB, seed=4, workers=1,
        )
        with pytest.raises(FatalTaskError):
            campaign.run(
                CharacterizationPolicy.ONE_HOP_PACKED, day=1,
                checkpoint=path,
                # Fails partway through the pair stage, so the resumed
                # run replays both stages' counters from the checkpoint.
                faults=FaultInjector(FaultPlan.single("fatal", rate=0.15,
                                                      seed=5)),
            )
        outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, day=1,
                               checkpoint=path)
        assert (len(outcome.plan.independent_experiments)
                < outcome.checkpoint_hits < outcome.num_experiments)
        assert _summary(outcome) == reference
