"""Tests for the sensitivity extension study and the CLI runner."""

import pytest

from repro.experiments import sensitivity
from repro.experiments.common import ExperimentConfig


class TestSensitivity:
    def test_device_construction(self):
        device = sensitivity._device_with_factor(5.0)
        assert device.num_qubits == 10
        assert len(device.crosstalk.pairs) == 1
        assert device.crosstalk.is_high_pair((3, 4), (5, 6))

    def test_factor_one_has_no_pairs(self):
        device = sensitivity._device_with_factor(1.0)
        assert device.crosstalk.pairs == ()

    def test_below_threshold_ties_parsched(self):
        config = ExperimentConfig(seed=3)
        rows = sensitivity.run_sensitivity(factors=(1.5,), config=config)
        assert len(rows) == 1
        assert not rows[0].xtalk_serialized
        assert rows[0].improvement == pytest.approx(1.0)

    def test_strong_factor_serializes(self):
        config = ExperimentConfig(seed=3)
        rows = sensitivity.run_sensitivity(factors=(10.0,), config=config)
        assert rows[0].xtalk_serialized
        assert rows[0].xtalk_error < rows[0].par_error

    def test_format_table(self):
        config = ExperimentConfig(seed=3)
        rows = sensitivity.run_sensitivity(factors=(1.5, 8.0), config=config)
        table = sensitivity.format_table(rows)
        assert "improvement" in table


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "sensitivity" in out

    def test_fig10_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "characterization cost" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])
