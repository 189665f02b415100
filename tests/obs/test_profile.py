"""Deterministic span profiler: attribution, exports, fan-out skew."""

import pytest

from repro.obs.profile import (
    PROFILE_SCHEMA,
    TraceProfile,
    collapsed_stacks,
    fanout_skew,
    format_profile_report,
    histogram_percentile,
    profile_trace,
    speedscope_document,
    validate_speedscope,
)
from repro.obs.trace import Span, Trace


@pytest.fixture()
def trace():
    """root(1.0s) -> a(0.6) -> b(0.2); root -> a(0.1); self times:
    root 0.3, a 0.5 (0.4 + 0.1), b 0.2."""
    return Trace(name="run", run_id="r1", spans=[
        Span(name="root", seconds=1.0, children=[
            Span(name="a", seconds=0.6, children=[
                Span(name="b", seconds=0.2),
            ]),
            Span(name="a", seconds=0.1),
        ]),
    ])


class TestProfileTrace:
    def test_self_and_total_attribution(self, trace):
        profile = profile_trace(trace)
        assert profile.total_seconds == pytest.approx(1.0)
        assert profile.stats["root"].self_seconds == pytest.approx(0.3)
        assert profile.stats["root"].total_seconds == pytest.approx(1.0)
        assert profile.stats["a"].count == 2
        assert profile.stats["a"].self_seconds == pytest.approx(0.5)
        assert profile.stats["a"].total_seconds == pytest.approx(0.7)
        assert profile.stats["b"].self_seconds == pytest.approx(0.2)

    def test_ranked_orders_by_self_time(self, trace):
        names = [s.name for s in profile_trace(trace).ranked("self")]
        assert names == ["a", "root", "b"]
        with pytest.raises(ValueError):
            profile_trace(trace).ranked("wat")

    def test_deterministic(self, trace):
        assert profile_trace(trace).to_dict() == \
            profile_trace(trace).to_dict()

    def test_document_round_trip(self, trace):
        doc = profile_trace(trace).to_dict()
        assert doc["schema"] == PROFILE_SCHEMA
        back = TraceProfile.from_dict(doc)
        assert back.stats["a"].self_seconds == pytest.approx(0.5)
        assert "profile" in format_profile_report(doc)
        with pytest.raises(ValueError, match="not a profile"):
            TraceProfile.from_dict({"schema": "x"})

    def test_format_lists_heaviest_first(self, trace):
        text = profile_trace(trace).format()
        assert text.index(" a ") < text.index("root")


class TestCollapsedStacks:
    def test_paths_weighted_by_self_micros(self, trace):
        lines = collapsed_stacks(trace).splitlines()
        weights = dict(line.rsplit(" ", 1) for line in lines)
        assert weights["root"] == "300000"
        assert weights["root;a"] == "500000"
        assert weights["root;a;b"] == "200000"


class TestSpeedscope:
    def test_export_validates_against_schema(self, trace):
        """Acceptance: the speedscope export conforms to its JSON schema."""
        doc = speedscope_document(trace)
        assert validate_speedscope(doc) == []
        assert doc["profiles"][0]["endValue"] == pytest.approx(1.0)
        frames = [f["name"] for f in doc["shared"]["frames"]]
        assert frames == ["root", "a", "b"]

    def test_validator_catches_corruption(self, trace):
        doc = speedscope_document(trace)
        doc["profiles"][0]["events"][0]["type"] = "X"
        problems = validate_speedscope(doc)
        assert any("not in" in p for p in problems)

    def test_validator_catches_unbalanced_events(self, trace):
        doc = speedscope_document(trace)
        doc["profiles"][0]["events"].pop()  # drop the final close
        assert any("unclosed" in p for p in validate_speedscope(doc))

    def test_validator_catches_missing_required(self):
        problems = validate_speedscope({"$schema": "s"})
        assert any("missing required" in p for p in problems)


class TestHistogramPercentile:
    HIST = {"bounds": [0.1, 1.0, 10.0], "bucket_counts": [5, 4, 1],
            "count": 10, "sum": 6.0, "max": 7.5}

    def test_walks_cumulative_buckets(self):
        assert histogram_percentile(self.HIST, 0.5) == 0.1
        assert histogram_percentile(self.HIST, 0.9) == 1.0
        assert histogram_percentile(self.HIST, 1.0) == 10.0

    def test_empty_histogram_is_zero(self):
        assert histogram_percentile({"count": 0}, 0.5) == 0.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            histogram_percentile(self.HIST, 1.5)


class TestFanoutSkew:
    def test_reports_exec_and_queue_stats(self):
        doc = {"histograms": {
            "parallel.task.exec_seconds": {
                "bounds": [0.1, 1.0], "bucket_counts": [3, 1],
                "count": 4, "sum": 1.0, "max": 0.6},
            "parallel.task.queue_seconds": {
                "bounds": [0.1, 1.0], "bucket_counts": [4, 0],
                "count": 4, "sum": 0.2, "max": 0.08},
        }}
        skew = fanout_skew(doc)
        assert skew["exec"]["count"] == 4
        assert skew["exec"]["mean_seconds"] == pytest.approx(0.25)
        assert skew["imbalance"] == pytest.approx(0.6 / 0.25)
        assert skew["queue"]["max_seconds"] == pytest.approx(0.08)

    def test_serial_run_returns_none(self):
        assert fanout_skew({"histograms": {}}) is None
