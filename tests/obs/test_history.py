"""Run history store: summarization, append/read, retention, corruption."""

import json

import pytest

from repro.obs.history import (
    HISTORY_SCHEMA,
    RunHistory,
    RunRecord,
    flatten_numeric,
    format_history_report,
    load_run_record,
    summarize_manifest,
    summarize_metrics,
    summarize_trace,
)
from repro.obs.manifest import RunManifest
from repro.obs.trace import Span, Trace


class TestFlattenNumeric:
    def test_nested_dicts_flatten_to_dotted_names(self):
        doc = {"a": {"b": 1, "c": 2.5}, "d": 3}
        assert flatten_numeric(doc) == {"a.b": 1.0, "a.c": 2.5, "d": 3.0}

    def test_bools_become_zero_one(self):
        assert flatten_numeric({"ok": True, "bad": False}) == \
            {"ok": 1.0, "bad": 0.0}

    def test_non_numeric_leaves_dropped(self):
        doc = {"s": "text", "l": [1, 2], "n": None, "x": 4}
        assert flatten_numeric(doc) == {"x": 4.0}


class TestSummaries:
    def test_manifest_results_and_workers(self):
        doc = {"results": {"workloads": {"tomography": {"speedup": 1.5}}},
               "workers": 4}
        series = summarize_manifest(doc)
        assert series["results.workloads.tomography.speedup"] == 1.5
        assert series["workers"] == 4.0

    def test_metrics_counters_gauges_histograms(self):
        doc = {
            "counters": {"rb.experiments": 12},
            "gauges": {"parallel.mode": 2},
            "histograms": {"rb.experiment_seconds": {
                "count": 4, "sum": 2.0, "max": 0.9}},
        }
        series = summarize_metrics(doc)
        assert series["rb.experiments"] == 12.0
        assert series["parallel.mode"] == 2.0
        assert series["rb.experiment_seconds.count"] == 4.0
        assert series["rb.experiment_seconds.mean"] == 0.5
        assert series["rb.experiment_seconds.max"] == 0.9

    def test_trace_total_and_top_level_spans(self):
        trace = Trace(name="run", spans=[
            Span(name="plan", seconds=0.25),
            Span(name="merge", seconds=0.75),
        ])
        series = summarize_trace(trace)
        assert series["trace.total_seconds"] == pytest.approx(1.0)
        assert series["trace.span.plan.seconds"] == 0.25


class TestRunRecord:
    def test_round_trip(self):
        record = RunRecord(run_id="r1", name="bench",
                           git={"sha": "abc", "dirty": False}, workers=2,
                           series={"x.seconds": 1.0},
                           documents={"scorecard": {"schema": "s"}})
        back = RunRecord.from_dict(record.to_dict())
        assert back == record
        assert back.git_sha == "abc"
        assert back.git_dirty is False

    def test_from_dict_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="not a history record"):
            RunRecord.from_dict({"schema": "other/v1", "run_id": "r"})

    def test_from_artifacts_merges_all_sources(self):
        manifest = RunManifest.capture(name="run", workers=2,
                                       results={"headline": 3.0})
        record = RunRecord.from_artifacts(
            manifest=manifest.to_dict(),
            metrics={"counters": {"c": 1}, "gauges": {}, "histograms": {}},
            trace=Trace(name="run", spans=[Span(name="s", seconds=0.1)]),
            extra_series={"extra": 7.0},
            documents={"doc": {"k": "v"}},
        )
        assert record.name == "run"
        assert record.series["results.headline"] == 3.0
        assert record.series["c"] == 1.0
        assert record.series["trace.span.s.seconds"] == 0.1
        assert record.series["extra"] == 7.0
        assert record.documents == {"doc": {"k": "v"}}


class TestLoadRunRecord:
    def test_loads_manifest_path(self, tmp_path):
        manifest = RunManifest.capture(name="m", results={"v": 1.0})
        path = tmp_path / "m_manifest.json"
        path.write_text(manifest.to_json())
        record = load_run_record(str(path))
        assert record.name == "m"
        assert record.series["results.v"] == 1.0

    def test_jsonl_path_returns_last_record(self, tmp_path):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        store.append(RunRecord(run_id="r1", name="n"))
        store.append(RunRecord(run_id="r2", name="n"))
        assert load_run_record(store.path).run_id == "r2"

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_run_record(str(tmp_path / "missing.jsonl"))

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            load_run_record({"schema": "mystery/v9"})


class TestRunHistory:
    def test_append_and_read_back(self, tmp_path):
        store = RunHistory(str(tmp_path / "sub" / "h.jsonl"))
        store.append(RunRecord(run_id="r1", name="a",
                               series={"x.seconds": 1.0}))
        store.append(RunRecord(run_id="r2", name="b"))
        records = store.records()
        assert [r.run_id for r in records] == ["r1", "r2"]
        assert len(store) == 2

    def test_missing_store_reads_empty(self, tmp_path):
        assert RunHistory(str(tmp_path / "nope.jsonl")).records() == []

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "h.jsonl"
        good = json.dumps(RunRecord(run_id="r1", name="a").to_dict())
        path.write_text(good + "\nnot json{{\n"
                        + json.dumps({"schema": "foreign/v1"}) + "\n")
        store = RunHistory(str(path))
        assert [r.run_id for r in store.records()] == ["r1"]
        assert store.corrupt_lines == 2

    def test_query_by_name_and_sha(self, tmp_path):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        store.append(RunRecord(run_id="r1", name="a", git={"sha": "s1"}))
        store.append(RunRecord(run_id="r2", name="b", git={"sha": "s1"}))
        store.append(RunRecord(run_id="r3", name="a", git={"sha": "s2"}))
        assert [r.run_id for r in store.query(name="a")] == ["r1", "r3"]
        assert [r.run_id for r in store.query(sha="s1")] == ["r1", "r2"]
        assert [r.run_id for r in store.query(name="a", limit=1)] == ["r3"]

    def test_last_returns_newest(self, tmp_path):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        for i in range(5):
            store.append(RunRecord(run_id=f"r{i}", name="a"))
        assert [r.run_id for r in store.last(2)] == ["r3", "r4"]

    def test_compact_keeps_newest_per_name(self, tmp_path):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        for i in range(6):
            store.append(RunRecord(run_id=f"a{i}", name="a"))
        store.append(RunRecord(run_id="b0", name="b"))
        dropped = store.compact(keep_last=2)
        assert dropped == 4
        records = store.records()
        assert [r.run_id for r in records] == ["a4", "a5", "b0"]

    def test_compact_noop_when_under_limit(self, tmp_path):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        store.append(RunRecord(run_id="r1", name="a"))
        assert store.compact(keep_last=5) == 0

    def test_compact_rejects_bad_limit(self, tmp_path):
        with pytest.raises(ValueError):
            RunHistory(str(tmp_path / "h.jsonl")).compact(keep_last=0)

    def test_compact_drops_corrupt_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        good = json.dumps(RunRecord(run_id="r1", name="a").to_dict())
        path.write_text("garbage\n" + good + "\n")
        store = RunHistory(str(path))
        store.records()
        store.compact(keep_last=10)
        assert "garbage" not in path.read_text()


class TestFormatHistoryReport:
    def test_renders_one_line_per_record(self, tmp_path):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        store.append(RunRecord(run_id="r1", name="bench",
                               git={"sha": "abcdef012345", "dirty": True},
                               series={"x": 1.0},
                               documents={"scorecard": {}}))
        text = format_history_report(store)
        assert "r1" in text
        assert "bench" in text
        assert "abcdef0123*" in text  # dirty marker
        assert "scorecard" in text

    def test_empty_store_message(self, tmp_path):
        text = format_history_report(str(tmp_path / "none.jsonl"))
        assert "no matching records" in text


def test_schema_constant_round_trips():
    assert RunRecord(run_id="r", name="n").to_dict()["schema"] == \
        HISTORY_SCHEMA
