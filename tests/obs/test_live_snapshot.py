"""Snapshots, alert lifecycle, the tail/top CLI, and the live plane's
lifecycle."""

import json
import threading
import time

import pytest

from repro.obs.__main__ import EXIT_ERROR, main
from repro.obs.events import event_sink
from repro.obs.live.alerts import (
    AlertEngine,
    AlertRule,
    breaker_open_rule,
    budget_rule,
    default_fleet_rules,
    drift_lag_rule,
    queue_latency_rule,
    task_failure_rule,
)
from repro.obs.live.plane import LivePlane, get_plane
from repro.obs.live.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotPublisher,
    SnapshotWriter,
    build_series,
    read_snapshots,
    tail_records,
)
from repro.obs.registry import MetricsRegistry, push_registry


def _snapshot(seq, **series):
    return {"schema": SNAPSHOT_SCHEMA, "seq": seq, "series": series}


class TestBuildSeries:
    def test_histograms_contribute_p95(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 0.03):
            registry.observe("task.seconds", value)
        registry.inc("tasks", 3)
        registry.set("level", 7.0)
        series = build_series(registry.snapshot())
        assert series["tasks"] == 3
        assert series["level"] == 7.0
        assert series["task.seconds.count"] == 3
        assert series["task.seconds.p95"] > 0


class TestPublisher:
    def test_publish_builds_versioned_document(self):
        with push_registry(MetricsRegistry()) as registry:
            registry.inc("fleet.ticks", 2)
            publisher = SnapshotPublisher(interval=0, source="test")
            first = publisher.publish()
            second = publisher.publish()
            assert first["schema"] == SNAPSHOT_SCHEMA
            assert first["source"] == "test"
            assert (first["seq"], second["seq"]) == (0, 1)
            assert first["series"]["fleet.ticks"] == 2
            assert first["alerts"] == {"firing": [], "transitions": []}
            assert registry.counter("obs.live.snapshots").value == 2

    def test_background_thread_publishes_and_stops(self):
        with push_registry(MetricsRegistry()) as registry:
            snapshots = registry.counter("obs.live.snapshots")
            publisher = SnapshotPublisher(interval=0.01)
            publisher.start()
            try:
                deadline = time.monotonic() + 5.0
                while snapshots.value < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert snapshots.value >= 1
            finally:
                publisher.stop()
            publisher.stop()  # idempotent

    def test_alert_transition_emits_obs_alert_event(self):
        with push_registry(MetricsRegistry()) as registry:
            registry.set("fleet.max_staleness", 5.0)
            engine = AlertEngine([drift_lag_rule(days=2)])
            publisher = SnapshotPublisher(interval=0, alerts=engine)
            with event_sink() as sink:
                publisher.publish()
            [event] = sink.of("obs.alert")
            assert event["alert"] == "drift_lag"
            assert event["state"] == "firing"
            assert registry.counter("obs.live.alerts").value == 1


class TestWriterAndReaders:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "snapshots.jsonl")
        with SnapshotWriter(path) as writer:
            writer.append(_snapshot(0))
            writer.append(_snapshot(1))
        assert [s["seq"] for s in read_snapshots(path)] == [0, 1]

    def test_read_snapshots_skips_foreign_schemas(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps(_snapshot(0)) + "\n"
            + json.dumps({"schema": "other/v1"}) + "\n"
        )
        assert [s["seq"] for s in read_snapshots(str(path))] == [0]

    def test_tail_counts_corrupt_and_torn_lines(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        path.write_text(
            json.dumps(_snapshot(0)) + "\n"
            + "{not json}\n"
            + json.dumps([1, 2]) + "\n"        # parses, not an object
            + json.dumps(_snapshot(1)) + "\n"
            + '{"torn": '                       # no newline: torn tail
        )
        with push_registry(MetricsRegistry()) as registry:
            records = list(tail_records(str(path)))
            assert [r["seq"] for r in records] == [0, 1]
            assert registry.counter("obs.events.corrupt_lines").value == 3

    def test_follow_sees_concurrent_appends(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        with SnapshotWriter(path) as writer:
            writer.append(_snapshot(0))

            def _append_later():
                writer.append(_snapshot(1))

            timer = threading.Timer(0.05, _append_later)
            timer.start()
            try:
                seen = []
                for record in tail_records(path, follow=True, poll=0.01,
                                           max_seconds=5.0):
                    seen.append(record["seq"])
                    if len(seen) == 2:
                        break
            finally:
                timer.cancel()
        assert seen == [0, 1]


class TestAlertEngine:
    def test_sustain_window_delays_firing(self):
        engine = AlertEngine([AlertRule("hot", "temp", 10, sustain=2)])
        assert engine.evaluate(_snapshot(0, temp=11)) == []
        [fired] = engine.evaluate(_snapshot(1, temp=12))
        assert (fired["alert"], fired["state"]) == ("hot", "firing")
        assert engine.firing == ["hot"]

    def test_resolve_sustain_and_lifecycle_counts(self):
        engine = AlertEngine([AlertRule("hot", "temp", 10,
                                        resolve_sustain=2)])
        engine.evaluate(_snapshot(0, temp=11))
        assert engine.evaluate(_snapshot(1, temp=5)) == []
        [resolved] = engine.evaluate(_snapshot(2, temp=5))
        assert resolved["state"] == "resolved"
        summary = engine.summary()
        assert summary["firing"] == []
        assert summary["rules"]["hot"] == {"fired": 1, "resolved": 1,
                                           "firing": False}

    def test_missing_series_leaves_state_untouched(self):
        engine = AlertEngine([AlertRule("hot", "temp", 10)])
        engine.evaluate(_snapshot(0, temp=11))
        assert engine.evaluate(_snapshot(1)) == []  # no resolve either
        assert engine.firing == ["hot"]

    def test_delta_rule_rates_a_counter(self):
        engine = AlertEngine([task_failure_rule(per_snapshot=2)])
        name = "resilience.task_failures"
        assert engine.evaluate(_snapshot(0, **{name: 10.0})) == []
        assert engine.evaluate(_snapshot(1, **{name: 11.0})) == []
        [fired] = engine.evaluate(_snapshot(2, **{name: 13.0}))
        assert fired["state"] == "firing"

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            AlertRule("bad", "s", 1, op="~=")
        with pytest.raises(ValueError):
            AlertRule("bad", "s", 1, sustain=0)
        with pytest.raises(ValueError):
            AlertEngine([AlertRule("dup", "s", 1), AlertRule("dup", "t", 1)])

    def test_default_fleet_rules_cover_the_failure_classes(self):
        names = {rule.name for rule in default_fleet_rules()}
        assert names == {"drift_lag", "breaker_open", "task_failures",
                         "queue_latency", "budget_exhausted"}
        assert breaker_open_rule().series == "fleet.breakers_open"
        assert queue_latency_rule().series == \
            "parallel.task.queue_seconds.p95"
        assert budget_rule().op == "<="


class TestTailTopCli:
    def _write_stream(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"
        records = [
            _snapshot(0, **{"fleet.day": 0.0, "parallel.tasks": 4.0}),
            "{corrupt",
            _snapshot(1, **{"fleet.day": 1.0, "fleet.max_staleness": 3.0}),
        ]
        lines = [r if isinstance(r, str) else json.dumps(r)
                 for r in records]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_tail_renders_digest_lines(self, tmp_path, capsys):
        path = self._write_stream(tmp_path)
        assert main(["tail", path]) == 0
        out = capsys.readouterr().out
        assert "[   0]" in out and "[   1]" in out
        assert "day=1" in out and "max_staleness=3" in out

    def test_tail_last_n(self, tmp_path, capsys):
        path = self._write_stream(tmp_path)
        assert main(["tail", path, "--last", "1"]) == 0
        out = capsys.readouterr().out
        assert "[   1]" in out and "[   0]" not in out

    def test_tail_json_format(self, tmp_path, capsys):
        path = self._write_stream(tmp_path)
        assert main(["tail", path, "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(l)["seq"] for l in lines] == [0, 1]

    def test_top_renders_board(self, tmp_path, capsys):
        path = str(tmp_path / "snapshots.jsonl")
        document = _snapshot(3, **{"fleet.day": 2.0,
                                   "fleet.breakers_open": 1.0})
        document["heartbeats"] = {
            "campaign[high_only]": {"beats": 7, "ts": 1.0,
                                    "done": 5, "total": 9},
        }
        document["alerts"] = {"firing": ["breaker_open"],
                              "transitions": []}
        with open(path, "w") as handle:
            handle.write(json.dumps(document) + "\n")
        assert main(["top", path]) == 0
        out = capsys.readouterr().out
        assert "fleet.day" in out
        assert "campaign[high_only]" in out
        assert "breaker_open" in out

    def test_top_empty_stream_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["top", str(path)]) == EXIT_ERROR


class TestLivePlane:
    def test_get_plane_tracks_innermost(self):
        with push_registry(MetricsRegistry()):
            assert get_plane() is None
            plane = LivePlane(interval=0)
            with plane:
                assert get_plane() is plane
            assert get_plane() is None

    def test_plane_is_not_reentrant(self):
        with push_registry(MetricsRegistry()):
            plane = LivePlane(interval=0)
            with plane:
                with pytest.raises(RuntimeError):
                    plane.__enter__()
