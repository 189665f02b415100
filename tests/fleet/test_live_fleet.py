"""The live plane over a mini fleet: pure-observer identity + telemetry."""

import pytest

from repro.fleet.soak import SoakConfig, _controller
from repro.obs.live import LivePlane, default_fleet_rules, read_snapshots
from repro.obs.registry import MetricsRegistry, push_registry
from repro.rb.executor import RBConfig

DAYS = 2


def _config():
    return SoakConfig(
        devices=3, days=DAYS, qubits=5,
        rb_config=RBConfig(lengths=(2, 4, 8), num_sequences=2),
    )


@pytest.fixture(scope="module")
def live_run(tmp_path_factory):
    """One fault-free fleet run live-off and one live-on (same seeds)."""
    config = _config()
    live_dir = str(tmp_path_factory.mktemp("live"))
    with push_registry(MetricsRegistry()):
        off = _controller(config).run(config.days)
    with push_registry(MetricsRegistry()) as registry:
        plane = LivePlane(live_dir, interval=0,
                          rules=default_fleet_rules(), source="test-fleet")
        with plane:
            on = _controller(config).run(config.days)
    return off, on, plane, registry


class TestPureObserver:
    def test_published_epochs_bitwise_identical(self, live_run):
        off, on, _plane, _registry = live_run
        assert off.published_json() == on.published_json()

    def test_quarantine_and_replays_identical(self, live_run):
        off, on, _plane, _registry = live_run
        assert off.quarantined == on.quarantined
        assert off.replays == on.replays


class TestPerTickTelemetry:
    def test_one_snapshot_per_tick_plus_final(self, live_run):
        _off, _on, plane, _registry = live_run
        snapshots = read_snapshots(plane.snapshot_path)
        # interval=0 disables the timer: every snapshot here is either a
        # controller tick() or the plane's final exit sample.
        assert len(snapshots) == DAYS + 1
        assert [s["seq"] for s in snapshots] == list(range(DAYS + 1))
        assert all(s["source"] == "test-fleet" for s in snapshots)

    def test_fleet_gauges_progress_across_ticks(self, live_run):
        _off, _on, plane, _registry = live_run
        ticks = read_snapshots(plane.snapshot_path)[:DAYS]
        assert [s["series"]["fleet.day"] for s in ticks] == [0.0, 1.0]
        for snapshot in ticks:
            series = snapshot["series"]
            assert series["fleet.breakers_open"] == 0.0
            assert series["fleet.quarantined_devices"] == 0.0
            assert series["fleet.max_staleness"] == 0.0  # all fresh
            assert "fleet.budget_left" not in series  # unbudgeted fleet

    def test_fleet_heartbeat_rides_in_snapshots(self, live_run):
        _off, _on, plane, _registry = live_run
        last_tick = read_snapshots(plane.snapshot_path)[DAYS - 1]
        entry = last_tick["heartbeats"]["fleet"]
        assert entry["day"] == DAYS - 1
        assert entry["published"] == 3 * DAYS
        assert entry["beats"] >= DAYS

    def test_no_alerts_on_a_healthy_fleet(self, live_run):
        _off, _on, plane, _registry = live_run
        summary = plane.alerts.summary()
        assert summary["firing"] == []
        assert all(counts["fired"] == 0
                   for counts in summary["rules"].values())

    def test_live_counters_accounted(self, live_run):
        _off, _on, _plane, registry = live_run
        assert registry.counter("obs.live.snapshots").value == DAYS + 1
        assert registry.counter("obs.live.heartbeats").value > 0
