"""Trace v2: span nesting, serialization, and the reader."""

import json

import pytest

from repro.obs.trace import (
    TRACE_SCHEMA,
    Trace,
    current_span,
    read_trace,
    span,
)


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        with span("outer") as outer:
            with span("middle") as middle:
                with span("inner") as inner:
                    inner.add("n", 1)
            with span("sibling"):
                pass
        assert [c.name for c in outer.children] == ["middle", "sibling"]
        assert [c.name for c in middle.children] == ["inner"]
        assert outer.seconds >= middle.seconds >= inner.seconds >= 0.0

    def test_current_span_tracks_innermost(self):
        assert current_span() is None
        with span("a") as a:
            assert current_span() is a
            with span("b") as b:
                assert current_span() is b
            assert current_span() is a
        assert current_span() is None

    def test_stack_unwinds_on_exception(self):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        assert current_span() is None

    def test_walk_and_total_counters(self):
        with span("root") as root:
            root.add("x", 1)
            with span("leaf") as leaf:
                leaf.add("x", 2)
                leaf.add("y", 5)
        assert [s.name for s in root.walk()] == ["root", "leaf"]
        assert root.total_counters() == {"x": 3.0, "y": 5.0}

    def test_stage_root_nests_under_enclosing_span(self):
        with span("outer") as outer:
            with span("inner-trace") as root:
                with span("stage"):
                    pass
        trace = Trace(root.name, spans=root.children)
        assert [c.name for c in outer.children] == ["inner-trace"]
        assert trace.name == "inner-trace"
        assert trace.pass_names == ["stage"]


class TestV2Serialization:
    def make_trace(self):
        with span("demo") as root:
            with span("a") as a:
                a.add("k", 2)
                with span("a.child") as child:
                    child.add("k", 1)
        return Trace(root.name, spans=root.children, run_id="abc123",
                     meta={"device": "fp"})

    def test_document_shape(self):
        doc = self.make_trace().to_dict()
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["name"] == "demo"
        assert doc["run_id"] == "abc123"
        assert doc["meta"] == {"device": "fp"}
        (span_doc,) = doc["spans"]
        assert [c["name"] for c in span_doc["spans"]] == ["a.child"]

    def test_counters_recursive(self):
        trace = self.make_trace()
        assert trace.counter("k") == 3.0

    def test_v2_round_trip(self):
        trace = self.make_trace()
        rebuilt = read_trace(trace.to_json())
        assert rebuilt.to_dict() == trace.to_dict()

    def test_span_lookup_descends(self):
        trace = self.make_trace()
        assert trace.span("a.child").counters == {"k": 1.0}


class TestReadTrace:
    def test_reads_v2_json_text_and_file(self, tmp_path):
        with span("compile[xtalk]") as root:
            with span("routing") as routing:
                routing.add("routing.swaps_inserted", 4)
        text = Trace(root.name, spans=root.children).to_json()
        trace = read_trace(text)
        assert trace.name == "compile[xtalk]"
        assert trace.pass_names == ["routing"]
        assert trace.counter("routing.swaps_inserted") == 4.0
        path = tmp_path / "trace.json"
        path.write_text(text)
        assert read_trace(str(path)).to_dict() == trace.to_dict()

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            read_trace({"schema": "bogus/v9", "name": "x"})
