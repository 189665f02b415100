"""Live telemetry plane: streaming snapshots, heartbeats, alerts.

``repro.obs.live`` layers real-time observability on the recorded
``repro.obs`` stack without touching any seeded computation:

* :mod:`~repro.obs.live.heartbeat` — worker/stage progress beats,
  recorded parent-side and merged into every snapshot.
* :mod:`~repro.obs.live.snapshot` — the versioned
  ``repro.obs.snapshot/v1`` stream: :class:`SnapshotPublisher`,
  append-only JSONL writing, and the corrupt-tolerant live reader
  behind ``python -m repro.obs tail``.
* :mod:`~repro.obs.live.alerts` — declarative threshold + sustain
  :class:`AlertRule` evaluation with a firing/resolved lifecycle,
  emitted as ``obs.alert`` events.
* :mod:`~repro.obs.live.plane` — :class:`LivePlane`, the one context
  manager that wires all of the above together.
"""

from .alerts import (
    AlertEngine,
    AlertRule,
    breaker_open_rule,
    budget_rule,
    default_fleet_rules,
    drift_lag_rule,
    queue_latency_rule,
    task_failure_rule,
)
from .heartbeat import (
    HeartbeatBoard,
    activate_board,
    deactivate_board,
    heartbeat,
    heartbeat_step,
    heartbeats_active,
    poll_interval,
)
from .plane import LivePlane, get_plane, live_plane
from .snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotPublisher,
    SnapshotWriter,
    build_series,
    read_snapshots,
    tail_records,
)

__all__ = [
    "AlertEngine",
    "AlertRule",
    "HeartbeatBoard",
    "LivePlane",
    "SNAPSHOT_SCHEMA",
    "SnapshotPublisher",
    "SnapshotWriter",
    "activate_board",
    "breaker_open_rule",
    "budget_rule",
    "build_series",
    "deactivate_board",
    "default_fleet_rules",
    "drift_lag_rule",
    "get_plane",
    "heartbeat",
    "heartbeat_step",
    "heartbeats_active",
    "live_plane",
    "poll_interval",
    "queue_latency_rule",
    "read_snapshots",
    "tail_records",
    "task_failure_rule",
]
