"""Sessions: one context manager that captures a run's full telemetry.

A :class:`Session` is the front door of :mod:`repro.obs`.  Entering one

* mints a run ID and opens a **root span** through
  :func:`~repro.obs.trace.span`, so every span any layer opens inside the
  block (pipeline passes, parallel maps, SMT solves, backend runs) nests
  into one tree — and a session opened inside another span
  nests its whole tree there too;
* opens a :class:`~repro.obs.registry.DeltaWindow` over the process-wide
  :class:`~repro.obs.registry.MetricsRegistry` so the session can report
  the **metric deltas** its block produced (with exact per-window
  histogram min/max);
* installs an :class:`~repro.obs.events.EventLog` sink stamped with the
  run ID, so :func:`~repro.obs.events.log_event` calls are captured.

On exit the root span closes and the session exposes the four artefact
documents — ``trace`` (v2), ``metrics`` (delta snapshot), ``events``,
and a :class:`~repro.obs.manifest.RunManifest` — plus :meth:`write`,
which drops all four next to each other in an output directory::

    with Session("fig5_campaign", config={"policy": "one_hop"}) as session:
        report = campaign.run(policy)
        session.results["epsilon_ct"] = report.max_conditional_error
    session.write("results/")          # fig5_campaign_trace.json, ...
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from .events import EventLog, install_sink, remove_sink
from .manifest import RunManifest, environment_info, git_revision, new_run_id
from .registry import DeltaWindow, get_registry
from .trace import Span, Trace, span


class Session:
    """Capture one run's trace, metrics, events, and manifest.

    Parameters
    ----------
    name:
        Root span / artefact base name (``fig5_campaign``).
    config:
        JSON-serializable run configuration, recorded in the manifest.
    seeds:
        The seeds feeding the run's RNG streams, recorded in the manifest.
    workers:
        Resolved parallel worker count, recorded in the manifest.
    meta:
        Free-form metadata attached to the trace document (device
        fingerprints, policy names).
    history:
        Optional path to (or :class:`~repro.obs.history.RunHistory` over)
        an append-only run store; when set, :meth:`write` also appends a
        summary record (see :meth:`append_history`).
    """

    def __init__(self, name: str,
                 config: Optional[dict] = None,
                 seeds: Optional[dict] = None,
                 workers: Optional[int] = None,
                 meta: Optional[dict] = None,
                 history=None):
        self.name = name
        self.history = history
        self.run_id = new_run_id()
        self.config = dict(config or {})
        self.seeds = dict(seeds or {})
        self.workers = workers
        self.meta = dict(meta or {})
        #: Headline numbers the caller wants pinned in the manifest.
        self.results: Dict[str, Any] = {}
        #: Whole documents (e.g. a scorecard) embedded in the history
        #: record so they round-trip through the store.
        self.documents: Dict[str, Any] = {}

        self._root: Optional[Span] = None
        self._root_span = span(name)
        self._window: Optional[DeltaWindow] = None
        self.event_log = EventLog(run_id=self.run_id)

        self.trace: Optional[Trace] = None
        self.metrics: Optional[dict] = None
        self.manifest: Optional[RunManifest] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        # A DeltaWindow (not a bare snapshot pair) so the session's
        # histogram deltas carry exact per-window min/max.
        self._window = get_registry().delta_window()
        install_sink(self.event_log)
        self._root = self._root_span.__enter__()
        self.event_log.log("session.start", name=self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._root_span.__exit__(exc_type, exc, tb)
        self.event_log.log(
            "session.end", name=self.name,
            seconds=self._root.seconds,
            error=repr(exc) if exc is not None else None,
        )
        remove_sink(self.event_log)

        self.metrics = self._window.delta()
        self._window.close()
        self.trace = Trace(
            name=self.name,
            spans=[self._root],
            run_id=self.run_id,
            meta=dict(self.meta),
        )
        self.manifest = RunManifest(
            run_id=self.run_id,
            name=self.name,
            config=self.config,
            seeds=self.seeds,
            workers=self.workers,
            git=git_revision(),
            environment=environment_info(),
            results=dict(self.results),
        )

    # ------------------------------------------------------------------
    @property
    def root(self) -> Optional[Span]:
        """The session's root span (None until the session is entered)."""
        return self._root

    def write(self, directory: str) -> Dict[str, str]:
        """Write the four artefacts into ``directory``.

        Files are named ``{name}_trace.json``, ``{name}_metrics.json``,
        ``{name}_manifest.json``, and ``{name}_events.jsonl``.  Returns a
        dict mapping artefact kind to the written path.  Only valid after
        the session has exited.
        """
        if self.trace is None:
            raise RuntimeError("session has not finished; nothing to write")
        os.makedirs(directory, exist_ok=True)
        paths = {
            "trace": os.path.join(directory, f"{self.name}_trace.json"),
            "metrics": os.path.join(directory, f"{self.name}_metrics.json"),
            "manifest": os.path.join(directory, f"{self.name}_manifest.json"),
            "events": os.path.join(directory, f"{self.name}_events.jsonl"),
        }
        with open(paths["trace"], "w", encoding="utf-8") as handle:
            handle.write(self.trace.to_json(indent=2))
            handle.write("\n")
        import json as _json
        with open(paths["metrics"], "w", encoding="utf-8") as handle:
            _json.dump(self.metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        # refresh the manifest's results in case the caller added headline
        # numbers after __exit__
        self.manifest.results = dict(self.results)
        with open(paths["manifest"], "w", encoding="utf-8") as handle:
            handle.write(self.manifest.to_json(indent=2))
            handle.write("\n")
        self.event_log.write(paths["events"])
        if self.history is not None:
            self.append_history(self.history)
        return paths

    def append_history(self, history) -> "RunRecord":
        """Append this run's summary record to a history store.

        ``history`` is a store path or a
        :class:`~repro.obs.history.RunHistory`.  The record carries the
        manifest's ``results.*`` series, the metric-delta summary, the
        trace's top-level span times, and any :attr:`documents`.  Only
        valid after the session has exited.
        """
        from .history import RunHistory, RunRecord

        if self.trace is None:
            raise RuntimeError("session has not finished; nothing to append")
        if not isinstance(history, RunHistory):
            history = RunHistory(history)
        self.manifest.results = dict(self.results)
        record = RunRecord.from_artifacts(
            manifest=self.manifest.to_dict(),
            metrics=self.metrics,
            trace=self.trace,
            documents=self.documents,
        )
        return history.append(record)
