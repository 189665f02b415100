"""Smoke and shape tests for the figure drivers (small configurations)."""

import pytest

from repro.experiments import (
    fig5_swap_errors,
    fig6_example_schedules,
    fig8_qaoa,
    fig9_hidden_shift,
    fig10_characterization_cost,
    scalability,
)
from repro.experiments.common import ExperimentConfig


@pytest.fixture()
def tiny_config():
    return ExperimentConfig(shots=256, seed=5)


class TestFig5:
    def test_shape_on_subset(self, poughkeepsie, tiny_config):
        rows = fig5_swap_errors.run_fig5(
            devices=[poughkeepsie], config=tiny_config, max_pairs_per_device=2
        )
        assert len(rows) == 2
        for row in rows:
            assert set(row.error) == {"SerialSched", "ParSched", "XtalkSched"}
            assert row.duration["SerialSched"] >= row.duration["ParSched"]
        summary = fig5_swap_errors.summarize(rows)
        assert summary.total == 2
        table = fig5_swap_errors.format_table(rows)
        assert "geomean" in table


class TestFig6:
    def test_case_study(self, tiny_config):
        result = fig6_example_schedules.run_fig6(config=tiny_config)
        assert result.crosstalk_pair_overlaps["ParSched"]
        assert not result.crosstalk_pair_overlaps["XtalkSched"]
        assert not result.crosstalk_pair_overlaps["SerialSched"]
        assert result.swap_5_10_after_11_12
        assert result.durations["SerialSched"] > result.durations["ParSched"]
        assert "XtalkSched" in fig6_example_schedules.format_report(result)


class TestFig8:
    def test_single_region_sweep(self, poughkeepsie, tiny_config):
        result = fig8_qaoa.run_fig8(
            device=poughkeepsie,
            config=tiny_config,
            omegas=(0.0, 0.35, 1.0),
            regions=[(5, 10, 11, 12)],
        )
        assert len(result.rows) == 3
        assert result.theoretical_ideal > 0
        series = dict(result.series((5, 10, 11, 12)))
        assert set(series) == {0.0, 0.35, 1.0}
        table = fig8_qaoa.format_table(result)
        assert "cross entropy" in table.lower()


class TestFig9:
    def test_redundant_has_higher_error(self, poughkeepsie):
        config = ExperimentConfig(shots=256, seed=5)
        rows = fig9_hidden_shift.run_fig9(
            device=poughkeepsie,
            config=config,
            omegas=(0.0, 0.35),
            regions=[(5, 10, 11, 12)],
        )
        plain = {r.omega: r.error_rate for r in rows if not r.redundant}
        redundant = {r.omega: r.error_rate for r in rows if r.redundant}
        # redundant CNOTs add noise at every omega
        assert redundant[0.0] > plain[0.0]
        # crosstalk mitigation helps the redundant variant
        assert redundant[0.35] < redundant[0.0]


class TestFig10:
    def test_monotone_reductions(self, devices):
        rows = fig10_characterization_cost.run_fig10(devices=devices)
        for device in devices:
            device_rows = [r for r in rows if r.device == device.name]
            counts = [r.num_experiments for r in device_rows]
            assert counts == sorted(counts, reverse=True)

    def test_paper_magnitudes(self, devices):
        rows = fig10_characterization_cost.run_fig10(devices=devices)
        for summary in fig10_characterization_cost.summarize(rows):
            assert summary.baseline_hours > 8.0
            assert summary.final_minutes < 30.0
            assert 20 <= summary.total_reduction <= 80


class TestScalability:
    def test_small_instances_compile(self, poughkeepsie):
        rows = scalability.run_scalability(
            device=poughkeepsie, instances=[(6, 60), (8, 120)]
        )
        assert len(rows) == 2
        for row in rows:
            assert row.compile_seconds < 120
        assert "compile" in scalability.format_table(rows)
