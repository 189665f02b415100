"""Streaming snapshots: ``repro.obs.snapshot/v1`` documents, live.

A :class:`SnapshotPublisher` samples the process-wide
:class:`~repro.obs.registry.MetricsRegistry` — on a background-thread
interval, and on demand (:meth:`~SnapshotPublisher.publish`, which the
fleet controller calls once per tick) — into versioned snapshot
documents::

    {"schema": "repro.obs.snapshot/v1",
     "seq": 12,                      # per-publisher, monotonically inc.
     "ts": 1754640000.1, "uptime_seconds": 34.2,
     "source": "fleet-soak", "run_id": "...",   # when a session is open
     "series": {"fleet.ticks": 3.0, ...},       # flattened metrics
     "heartbeats": {"characterize[...].task": {...}},
     "alerts": {"firing": [...], "transitions": [...]}}

``series`` is :func:`repro.obs.history.summarize_metrics` over the
sampled snapshot, plus a ``<histogram>.p95`` per histogram (the
deterministic bucket-walk percentile), so alert rules and the ``top``
view read one flat namespace.  Snapshots are *samples of observers*:
building one reads the registry, the heartbeat board, and the alert
engine, and writes nothing any seeded computation consumes.

Each published document is appended to a :class:`SnapshotWriter` JSONL
stream when configured and run through the
:class:`~repro.obs.live.alerts.AlertEngine`; alert transitions are
emitted as ``obs.alert`` events.

:func:`tail_records` is the corrupt-tolerant live reader behind
``python -m repro.obs tail --follow``: it only parses complete lines
(a killed writer's torn tail stays buffered, never poisons the stream)
and counts skipped garbage on ``obs.events.corrupt_lines``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Iterator, List, Optional

from ..events import current_run_id, log_event
from ..history import summarize_metrics
from ..profile import histogram_percentile
from ..registry import get_registry
from .alerts import AlertEngine
from .heartbeat import HeartbeatBoard

#: Schema identifier stamped into every snapshot document.
SNAPSHOT_SCHEMA = "repro.obs.snapshot/v1"


def build_series(metrics: dict) -> dict:
    """The flat series map of one metrics snapshot (plus p95s)."""
    series = summarize_metrics(metrics)
    for name, hist in metrics.get("histograms", {}).items():
        if hist.get("count"):
            series[f"{name}.p95"] = histogram_percentile(hist, 0.95)
    return series


class SnapshotWriter:
    """Append-only JSONL stream of snapshot documents."""

    def __init__(self, path: str):
        self.path = str(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, document: dict) -> None:
        """Write one document as a canonical JSON line and flush."""
        line = json.dumps(document, sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        """Close the underlying handle (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_snapshots(path: str) -> List[dict]:
    """Every parseable snapshot document in a JSONL stream (tolerant)."""
    return [record for record in tail_records(path)
            if record.get("schema") == SNAPSHOT_SCHEMA]


def tail_records(path: str, *, follow: bool = False, poll: float = 0.2,
                 max_seconds: Optional[float] = None) -> Iterator[dict]:
    """Yield JSON records from a (possibly growing) JSONL file.

    Only complete lines are parsed: a torn tail (a writer killed
    mid-append) stays in the buffer until its newline arrives — or is
    counted as corrupt at EOF in non-follow mode.  Lines that fail to
    parse, or parse to a non-object, are skipped and counted on the
    ``obs.events.corrupt_lines`` counter.  With ``follow=True`` the
    iterator polls for growth every ``poll`` seconds until
    ``max_seconds`` elapses (forever when None).
    """
    deadline = (time.monotonic() + max_seconds
                if max_seconds is not None else None)
    corrupt = 0
    buffer = ""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            while True:
                chunk = handle.read()
                if chunk:
                    buffer += chunk
                    while "\n" in buffer:
                        line, buffer = buffer.split("\n", 1)
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            record = json.loads(line)
                        except ValueError:
                            corrupt += 1
                            continue
                        if isinstance(record, dict):
                            yield record
                        else:
                            corrupt += 1
                    continue
                if not follow:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                time.sleep(poll)
        if buffer.strip():
            # A torn final line with no newline: incomplete, not data.
            corrupt += 1
    finally:
        if corrupt:
            get_registry().inc("obs.events.corrupt_lines", corrupt)


class SnapshotPublisher:
    """Periodic + on-demand snapshot publication (see module docstring).

    ``interval`` seconds between background samples (0 disables the
    thread; every snapshot is then an explicit :meth:`publish` call).
    The registry is resolved through :func:`get_registry` *at publish
    time*, so snapshots follow ``push_registry`` swaps the way the
    instrumented layers do.
    """

    def __init__(self, *, board: Optional[HeartbeatBoard] = None,
                 alerts: Optional[AlertEngine] = None,
                 writer: Optional[SnapshotWriter] = None,
                 interval: float = 0.5, source: str = "live"):
        self.board = board
        self.alerts = alerts
        self.writer = writer
        self.interval = float(interval)
        self.source = source
        self._seq = 0
        self._started_ts = time.time()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background sampling thread (no-op when interval<=0)."""
        if self.interval <= 0 or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-snapshot", daemon=True,
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.publish()
            except Exception:
                # A failed sample must never take down the run; the next
                # interval tries again.
                pass

    def stop(self) -> None:
        """Stop the background thread (idempotent; waits briefly)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    def publish(self) -> dict:
        """Sample, evaluate alerts, and write one snapshot."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            registry = get_registry()
            now = time.time()
            document = {
                "schema": SNAPSHOT_SCHEMA,
                "seq": seq,
                "ts": now,
                "uptime_seconds": now - self._started_ts,
                "source": self.source,
                "run_id": current_run_id(),
                "series": build_series(registry.snapshot()),
                "heartbeats": (self.board.snapshot()
                               if self.board is not None else {}),
            }
            transitions: List[dict] = []
            if self.alerts is not None:
                transitions = self.alerts.evaluate(document)
                document["alerts"] = {
                    "firing": self.alerts.firing,
                    "transitions": transitions,
                }
            else:
                document["alerts"] = {"firing": [], "transitions": []}
            if self.writer is not None:
                self.writer.append(document)
            registry.inc("obs.live.snapshots")
            for transition in transitions:
                registry.inc("obs.live.alerts")
                log_event("obs.alert", **transition)
        return document
