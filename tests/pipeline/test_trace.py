"""Trace structures of a pipeline-shaped run and the JSON export schema."""

import json

from repro.obs.trace import TRACE_SCHEMA, Span, Trace, span


def sample_trace():
    with span("compile[test]") as root:
        with span("routing") as record:
            record.counters["routing.swaps_inserted"] = 4.0
        with span("schedule[xtalk]") as record:
            record.counters.update({
                "schedule.serialized_pairs": 2.0,
                "smt.solve_seconds": 0.25,
            })
    return Trace(root.name, spans=root.children)


class TestStageTrace:
    def test_counters_aggregate_across_spans(self):
        trace = sample_trace()
        assert trace.counter("routing.swaps_inserted") == 4.0
        assert trace.counter("schedule.serialized_pairs") == 2.0
        assert trace.counter("missing", default=-1.0) == -1.0
        assert trace.total_seconds == sum(s.seconds for s in trace.spans)

    def test_span_lookup(self):
        trace = sample_trace()
        assert trace.span("routing").counters["routing.swaps_inserted"] == 4.0
        try:
            trace.span("nope")
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")

    def test_format_lists_every_pass_and_counter(self):
        text = sample_trace().format()
        assert "compile[test]" in text
        assert "routing" in text and "schedule[xtalk]" in text
        assert "smt.solve_seconds" in text

    def test_span_add(self):
        record = Span("s")
        record.add("n")
        record.add("n", 2.0)
        assert record.counters["n"] == 3.0


class TestTraceJsonSchema:
    def test_trace_document(self):
        doc = json.loads(sample_trace().to_json())
        assert doc["schema"] == TRACE_SCHEMA == "repro.obs.trace/v2"
        assert doc["name"] == "compile[test]"
        assert isinstance(doc["total_seconds"], float)
        assert doc["counters"]["routing.swaps_inserted"] == 4.0
        assert [s["name"] for s in doc["spans"]] == [
            "routing", "schedule[xtalk]",
        ]
        for s in doc["spans"]:
            assert {"name", "seconds", "counters"} <= set(s)
            assert s["seconds"] >= 0.0

    def test_round_trips_through_json(self):
        doc = sample_trace().to_dict()
        assert json.loads(json.dumps(doc)) == doc

