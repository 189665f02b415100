"""A small end-to-end chaos soak (CI runs the full-size one)."""

import pytest

from repro.fleet.soak import SoakConfig, main, run_soak
from repro.rb.executor import RBConfig


@pytest.fixture(scope="module")
def small_soak():
    # 4 days is the minimum that can quarantine: two failures trip the
    # breaker, the cooldown eats a day, and the failed probe is trip two
    return run_soak(SoakConfig(
        devices=3, days=4, qubits=5,
        rb_config=RBConfig(lengths=(2, 4, 8), num_sequences=2),
    ))


class TestSoak:
    def test_every_check_passes(self, small_soak):
        assert small_soak.ok, small_soak.format()

    def test_faults_really_fired(self, small_soak):
        assert small_soak.injected.get("fatal", 0) > 0
        assert sum(small_soak.injected.values()) > small_soak.config.days

    def test_always_fail_device_is_the_only_quarantine(self, small_soak):
        assert list(small_soak.quarantined) == ["sim00"]

    def test_scorecard_covers_the_fleet(self, small_soak):
        metrics = small_soak.scorecard.metrics
        assert metrics["devices"] == 3
        assert metrics["quarantined"] == 1

    def test_format_names_every_check(self, small_soak):
        text = small_soak.format()
        for name, _passed, _detail in small_soak.checks:
            assert name in text

    def test_rejects_fleet_too_small_to_mean_anything(self):
        with pytest.raises(ValueError, match=">= 3 devices"):
            SoakConfig(devices=2)


class TestCli:
    def test_main_exits_zero_and_writes_document(self, tmp_path, capsys):
        out = tmp_path / "soak.json"
        code = main([
            "--devices", "3", "--days", "4", "--qubits", "5",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "[PASS]" in captured.out
        import json

        document = json.loads(out.read_text())
        assert document["quarantined"] == ["sim00"]
        assert all(passed for _n, passed, _d in document["checks"])
