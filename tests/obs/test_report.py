"""Report formatting paths and the ``python -m repro.obs`` CLI contract."""

import json

import pytest

from repro.obs.__main__ import EXIT_ERROR, EXIT_GATE, main
from repro.obs.diff import diff_records
from repro.obs.history import RunHistory, RunRecord
from repro.obs.manifest import RunManifest
from repro.obs.profile import profile_trace
from repro.obs.report import (
    format_record_report,
    load_report_document,
    report,
    report_json,
)
from repro.obs.scorecard import drift_scorecard, DriftDay
from repro.obs.trace import Span, Trace


@pytest.fixture()
def trace_doc():
    return Trace(name="run", run_id="r1", spans=[
        Span(name="root", seconds=0.5, counters={"n": 3.0},
             children=[Span(name="leaf", seconds=0.2)]),
    ]).to_dict()


@pytest.fixture()
def record():
    return RunRecord(run_id="r1", name="bench",
                     git={"sha": "abcdef0123456789", "dirty": True},
                     series={"x.seconds": 1.5},
                     documents={"scorecard": {}})


class TestReportDispatch:
    def test_trace_renders_span_tree(self, trace_doc):
        text = report(trace_doc)
        assert "root" in text and "leaf" in text and "ms" in text

    def test_metrics_snapshot(self):
        doc = {"schema": "repro.obs.metrics/v1",
               "counters": {"c": 2.0}, "gauges": {"g": 1.0},
               "histograms": {"h": {"count": 2, "sum": 1.0,
                                    "min": 0.4, "max": 0.6}}}
        text = report(doc)
        assert "counters" in text and "gauges" in text and "h:" in text

    def test_manifest(self):
        doc = RunManifest.capture(name="m", results={"v": 1.0}).to_dict()
        assert "run" in report(doc)

    def test_diff_document(self):
        diff = diff_records(
            RunRecord(run_id="a", name="n", series={"x.seconds": 1.0}),
            RunRecord(run_id="b", name="n", series={"x.seconds": 3.0}))
        assert "regressed" in report(diff.to_dict())

    def test_profile_document(self, trace_doc):
        assert "profile" in report(profile_trace(trace_doc).to_dict())

    def test_scorecard_document(self):
        card = drift_scorecard("d", [DriftDay.build(0, [], [])])
        assert "drift_lag_days" in report(card.to_dict())

    def test_history_record_document(self, record):
        text = report(record.to_dict())
        assert "bench" in text and "x.seconds" in text

    def test_history_store_path(self, tmp_path, record):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        store.append(record)
        assert "bench" in report(store.path)

    def test_format_record_report_marks_dirty(self, record):
        text = format_record_report(record)
        assert "abcdef0123*" in text
        assert "documents: scorecard" in text


class TestJsonOutput:
    def test_load_report_document_requires_schema(self):
        with pytest.raises(ValueError, match="schema"):
            load_report_document({"no": "schema"})

    def test_jsonl_store_wraps_records(self, tmp_path, record):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        store.append(record)
        doc = load_report_document(store.path)
        assert doc["schema"] == "repro.obs.history/v1"
        assert len(doc["records"]) == 1

    def test_report_json_is_an_array(self, tmp_path, record):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(record.to_dict()))
        parsed = json.loads(report_json([str(path)]))
        assert isinstance(parsed, list)
        assert parsed[0]["run_id"] == "r1"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCliExitCodes:
    def test_report_text_ok(self, tmp_path, trace_doc, capsys):
        path = _write(tmp_path, "t.json", trace_doc)
        assert main(["report", path]) == 0
        assert "root" in capsys.readouterr().out

    def test_report_json_format(self, tmp_path, trace_doc, capsys):
        path = _write(tmp_path, "t.json", trace_doc)
        assert main(["report", "--format", "json", path]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed[0]["schema"] == "repro.obs.trace/v2"

    def test_report_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_diff_two_files_unchanged_exits_zero(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json",
                   RunRecord(run_id="a", name="n",
                             series={"x.seconds": 1.0}).to_dict())
        b = _write(tmp_path, "b.json",
                   RunRecord(run_id="b", name="n",
                             series={"x.seconds": 1.01}).to_dict())
        assert main(["diff", a, b, "--gate"]) == 0

    def test_diff_gate_regression_exits_two(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json",
                   RunRecord(run_id="a", name="n",
                             series={"x.seconds": 1.0}).to_dict())
        b = _write(tmp_path, "b.json",
                   RunRecord(run_id="b", name="n",
                             series={"x.seconds": 3.0}).to_dict())
        assert main(["diff", a, b, "--gate"]) == EXIT_GATE
        err = capsys.readouterr().err
        assert "1 series regressed" in err

    def test_diff_without_gate_reports_but_exits_zero(self, tmp_path,
                                                      capsys):
        a = _write(tmp_path, "a.json",
                   RunRecord(run_id="a", name="n",
                             series={"x.seconds": 1.0}).to_dict())
        b = _write(tmp_path, "b.json",
                   RunRecord(run_id="b", name="n",
                             series={"x.seconds": 3.0}).to_dict())
        assert main(["diff", a, b]) == 0
        assert "regressed" in capsys.readouterr().out

    def test_diff_against_history_window(self, tmp_path, capsys):
        """Acceptance: injected 2x slowdown vs a synthetic history fixture
        exits nonzero; a same-valued run diffs as unchanged."""
        store = RunHistory(str(tmp_path / "h.jsonl"))
        for i in range(5):
            store.append(RunRecord(run_id=f"r{i}", name="bench",
                                   series={"wall.seconds": 10.0 + 0.1 * i}))
        slow = _write(tmp_path, "slow.json",
                      RunRecord(run_id="slow", name="bench",
                                series={"wall.seconds": 20.0}).to_dict())
        same = _write(tmp_path, "same.json",
                      RunRecord(run_id="same", name="bench",
                                series={"wall.seconds": 10.2}).to_dict())
        assert main(["diff", slow, "--history", store.path,
                     "--last", "5", "--gate"]) == EXIT_GATE
        assert main(["diff", same, "--history", store.path,
                     "--last", "5", "--gate"]) == 0

    def test_diff_empty_history_is_exit_1(self, tmp_path, capsys):
        cand = _write(tmp_path, "c.json",
                      RunRecord(run_id="c", name="bench").to_dict())
        empty = str(tmp_path / "empty.jsonl")
        assert main(["diff", cand, "--history", empty]) == EXIT_ERROR

    def test_diff_missing_candidate_is_exit_1(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json",
                   RunRecord(run_id="a", name="n").to_dict())
        assert main(["diff", a]) == EXIT_ERROR

    def test_diff_warns_on_dirty_tree(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json",
                   RunRecord(run_id="a", name="n", git={"dirty": True},
                             series={"x.seconds": 1.0}).to_dict())
        b = _write(tmp_path, "b.json",
                   RunRecord(run_id="b", name="n",
                             series={"x.seconds": 1.0}).to_dict())
        assert main(["diff", a, b]) == 0
        assert "dirty working tree" in capsys.readouterr().err

    def test_profile_text_and_speedscope_out(self, tmp_path, trace_doc,
                                             capsys):
        path = _write(tmp_path, "t.json", trace_doc)
        assert main(["profile", path]) == 0
        assert "self ms" in capsys.readouterr().out
        out = str(tmp_path / "p.speedscope.json")
        assert main(["profile", path, "--format", "speedscope",
                     "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["profiles"][0]["type"] == "evented"

    def test_profile_collapsed_format(self, tmp_path, trace_doc, capsys):
        path = _write(tmp_path, "t.json", trace_doc)
        assert main(["profile", path, "--format", "collapsed"]) == 0
        assert "root;leaf" in capsys.readouterr().out

    def test_profile_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "no.json")]) == EXIT_ERROR

    def test_history_list_and_compact(self, tmp_path, record, capsys):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        for i in range(4):
            store.append(RunRecord(run_id=f"r{i}", name="bench"))
        assert main(["history", store.path, "--last", "2"]) == 0
        assert main(["history", store.path, "--compact", "2"]) == 0
        out = capsys.readouterr().out
        assert "dropped 2 record(s)" in out
        assert len(store) == 2

    def test_history_bad_compact_is_exit_1(self, tmp_path, capsys):
        store = RunHistory(str(tmp_path / "h.jsonl"))
        store.append(RunRecord(run_id="r", name="n"))
        assert main(["history", store.path, "--compact", "0"]) == EXIT_ERROR
