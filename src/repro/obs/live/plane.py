"""The live plane: one context manager wiring the whole telemetry loop.

Entering a :class:`LivePlane`

* activates a :class:`~repro.obs.live.heartbeat.HeartbeatBoard`, so the
  parallel engine, campaign, fleet controller, and SMT solver start
  beating progress;
* starts a :class:`~repro.obs.live.snapshot.SnapshotPublisher` sampling
  the metrics registry every ``interval`` seconds (plus on-demand
  :meth:`tick` samples), evaluating the plane's
  :class:`~repro.obs.live.alerts.AlertEngine` per snapshot and emitting
  ``obs.alert`` events on firing/resolved transitions;
* when ``directory`` is given, streams snapshots to
  ``<directory>/snapshots.jsonl`` (readable mid-run with
  ``python -m repro.obs tail --follow``).

Exiting stops the thread, publishes one final snapshot, deactivates the
board, and closes the stream.  The plane is a pure side-channel
observer: it reads the registry/board and writes only telemetry
artifacts, so a seeded run produces bitwise-identical results with the
plane on or off — the property the fleet soak's identity checks pin.

The innermost active plane is reachable through :func:`get_plane`; the
fleet controller uses that to publish one snapshot per tick without
taking a dependency on how (or whether) the plane was configured.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

from .alerts import AlertEngine, AlertRule
from .heartbeat import HeartbeatBoard, activate_board, deactivate_board
from .snapshot import SnapshotPublisher, SnapshotWriter

#: Stream file name under the plane's directory.
SNAPSHOT_FILE = "snapshots.jsonl"

_PLANES: List["LivePlane"] = []
_PLANE_LOCK = threading.Lock()


def get_plane() -> Optional["LivePlane"]:
    """The innermost active :class:`LivePlane`, or None."""
    with _PLANE_LOCK:
        return _PLANES[-1] if _PLANES else None


class LivePlane:
    """Bundle of heartbeats + publisher + alerting (module docstring).

    Parameters
    ----------
    directory:
        Where to stream ``snapshots.jsonl``; None keeps everything in
        memory (no files written).
    interval:
        Background sampling period in seconds; 0 disables the thread
        (snapshots then only happen on :meth:`tick`).
    rules:
        :class:`AlertRule` list evaluated per snapshot (default none).
    source:
        Stamped into every snapshot's ``source`` field.
    poll_interval:
        Liveness-beat period for blocked harvest loops (see
        :func:`repro.obs.live.heartbeat.poll_interval`).
    """

    def __init__(self, directory: Optional[str] = None, *,
                 interval: float = 0.5,
                 rules: Optional[List[AlertRule]] = None,
                 source: str = "live", poll_interval: float = 1.0):
        self.directory = str(directory) if directory is not None else None
        self.board = HeartbeatBoard(poll_interval=poll_interval)
        self.alerts = AlertEngine(list(rules or []))
        self._writer: Optional[SnapshotWriter] = None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            self._writer = SnapshotWriter(self.snapshot_path)
        self.publisher = SnapshotPublisher(
            board=self.board, alerts=self.alerts,
            writer=self._writer, interval=interval, source=source,
        )
        self._entered = False

    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> Optional[str]:
        """Path of the snapshot JSONL stream (None when memory-only)."""
        if self.directory is None:
            return None
        return os.path.join(self.directory, SNAPSHOT_FILE)

    # ------------------------------------------------------------------
    def __enter__(self) -> "LivePlane":
        if self._entered:
            raise RuntimeError("LivePlane is not re-entrant")
        self._entered = True
        with _PLANE_LOCK:
            _PLANES.append(self)
        activate_board(self.board)
        self.publisher.start()
        return self

    def tick(self) -> dict:
        """Publish one snapshot now (the per-fleet-tick status stream)."""
        return self.publisher.publish()

    def __exit__(self, *exc) -> None:
        self.publisher.stop()
        try:
            # One final sample so short runs always leave at least one
            # snapshot and alert states see the end-of-run series.
            self.publisher.publish()
        finally:
            deactivate_board(self.board)
            with _PLANE_LOCK:
                if self in _PLANES:
                    _PLANES.remove(self)
            if self._writer is not None:
                self._writer.close()
            self._entered = False


@contextmanager
def live_plane(directory: Optional[str] = None,
               **kwargs) -> Iterator[LivePlane]:
    """``with live_plane(dir, interval=0.2, rules=...) as plane: ...``"""
    plane = LivePlane(directory, **kwargs)
    with plane:
        yield plane
