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

Finally, the **live plane** (:mod:`repro.obs.live`) watches long-running
runs in real time: a :class:`SnapshotPublisher` samples the registry
into versioned ``repro.obs.snapshot/v1`` documents (merged with worker
heartbeats), an :class:`AlertEngine` evaluates declarative threshold +
sustain rules per snapshot with a firing/resolved lifecycle, and the
snapshots stream to tail-able JSONL (``python -m repro.obs tail --follow``
/ ``top``).  Everything in the live plane is a side-channel observer:
seeded results are bitwise identical with it on or off.

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
from .live import (
    SNAPSHOT_SCHEMA,
    AlertEngine,
    AlertRule,
    HeartbeatBoard,
    LivePlane,
    SnapshotPublisher,
    SnapshotWriter,
    build_series,
    default_fleet_rules,
    get_plane,
    heartbeat,
    heartbeat_step,
    heartbeats_active,
    live_plane,
    read_snapshots,
    tail_records,
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
    # live plane
    "SNAPSHOT_SCHEMA", "HeartbeatBoard",
    "SnapshotPublisher", "SnapshotWriter", "AlertRule", "AlertEngine",
    "LivePlane", "live_plane", "get_plane", "default_fleet_rules",
    "heartbeat", "heartbeat_step", "heartbeats_active",
    "build_series", "read_snapshots", "tail_records",
]
