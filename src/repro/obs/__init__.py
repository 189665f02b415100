"""repro.obs — the unified observability layer.

One telemetry spine for the whole reproduction (traces, metrics, events,
manifests), replacing the fragmented instrumentation that grew across
PR 1 (pipeline trace spans) and PR 2 (``parallel.*`` counters and
hand-rolled benchmark JSON).  Four pillars:

* **Spans** (:mod:`repro.obs.trace`): :func:`span` — the only way a
  span is recorded — opens a nested wall-time span on a thread-local
  stack; independently-instrumented layers compose into one tree, and a
  stage's own trace is its root span's children.  Serializes as
  ``repro.obs.trace/v2``.
* **Metrics** (:mod:`repro.obs.registry`): a process-wide
  :class:`MetricsRegistry` of counters, gauges, and histograms with
  stable dotted names; snapshot/diff/merge lets worker-process deltas
  flow back through :mod:`repro.parallel`.
* **Events** (:mod:`repro.obs.events`): structured JSON-lines records
  with run IDs and device fingerprints via :func:`log_event`, captured
  by an installed :class:`EventLog` sink.
* **Manifests** (:mod:`repro.obs.manifest`): per-run
  ``repro.obs.manifest/v1`` documents pinning config, seeds, worker
  count, and git SHA.

:class:`Session` ties all four together around one run, and
``python -m repro.obs report <file>`` renders any artefact as text.

On top of those sit the continuous-regression pillars (this layer is why
one run's artefacts are comparable with the next's):

* **History** (:mod:`repro.obs.history`): an append-only JSON-lines run
  store (``repro.obs.history/v1``) of per-run summary records keyed by
  run ID + git SHA, with query helpers and retention compaction.
* **Diff** (:mod:`repro.obs.diff`): a noise-aware comparator (median ±
  MAD window thresholds) classifying each series as improved / regressed
  / unchanged; powers ``python -m repro.obs diff`` and its ``--gate``.
* **Profile** (:mod:`repro.obs.profile`): deterministic self/total span
  attribution with collapsed-stack and speedscope exports, plus fan-out
  skew statistics from the per-task histograms.
* **Scorecards** (:mod:`repro.obs.scorecard`): domain-quality records —
  crosstalk-pair detection recall/precision, drift-tracking lag, and
  scheduler serialization audits — that diff and gate like any series.

See ``docs/observability.md`` for the metric/span name registry and
schemas.
"""

from .diff import (
    DIFF_SCHEMA,
    DiffThresholds,
    RunDiff,
    SeriesDiff,
    diff_records,
    diff_series,
    direction_of,
    format_diff,
)
from .events import (
    EVENTS_SCHEMA,
    EventLog,
    event_sink,
    install_sink,
    log_event,
    read_events,
    remove_sink,
)
from .history import (
    HISTORY_SCHEMA,
    RunHistory,
    RunRecord,
    flatten_numeric,
    load_run_record,
    summarize_manifest,
    summarize_metrics,
    summarize_trace,
)
from .manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    environment_info,
    git_revision,
    new_run_id,
    read_manifest,
    write_manifest,
)
from .registry import (
    METRICS_SCHEMA,
    Counter,
    DeltaWindow,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_snapshot,
    push_registry,
    set_registry,
)
from .profile import (
    PROFILE_SCHEMA,
    SpanStat,
    TraceProfile,
    collapsed_stacks,
    fanout_skew,
    histogram_percentile,
    profile_trace,
    speedscope_document,
    validate_speedscope,
)
from .report import load_report_document, report
from .scorecard import (
    SCORECARD_SCHEMA,
    DetectionQuality,
    DriftDay,
    Scorecard,
    campaign_scorecard,
    detection_quality,
    drift_scorecard,
    fleet_scorecard,
    schedule_audit_scorecard,
)
from .session import Session
from .trace import (
    TRACE_SCHEMA,
    Span,
    Trace,
    current_span,
    read_trace,
    span,
)

__all__ = [
    # trace
    "TRACE_SCHEMA", "Span", "Trace", "span", "current_span", "read_trace",
    # registry
    "METRICS_SCHEMA", "Counter", "DeltaWindow", "Gauge", "Histogram",
    "MetricsRegistry",
    "get_registry", "set_registry", "push_registry", "metrics_snapshot",
    # events
    "EVENTS_SCHEMA", "EventLog", "event_sink", "install_sink",
    "remove_sink", "log_event", "read_events",
    # manifest
    "MANIFEST_SCHEMA", "RunManifest", "new_run_id", "git_revision",
    "environment_info", "write_manifest", "read_manifest",
    # history
    "HISTORY_SCHEMA", "RunHistory", "RunRecord", "flatten_numeric",
    "load_run_record", "summarize_manifest", "summarize_metrics",
    "summarize_trace",
    # diff
    "DIFF_SCHEMA", "DiffThresholds", "RunDiff", "SeriesDiff",
    "diff_records", "diff_series", "direction_of", "format_diff",
    # profile
    "PROFILE_SCHEMA", "SpanStat", "TraceProfile", "profile_trace",
    "collapsed_stacks", "speedscope_document", "validate_speedscope",
    "histogram_percentile", "fanout_skew",
    # scorecard
    "SCORECARD_SCHEMA", "DetectionQuality", "DriftDay", "Scorecard",
    "detection_quality", "campaign_scorecard", "drift_scorecard",
    "fleet_scorecard", "schedule_audit_scorecard",
    # session / reporting
    "Session", "report", "load_report_document",
]
