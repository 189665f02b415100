"""In-memory spans around the benchmark's calls into each layer.

A traced iteration records one :class:`Span` per call the benchmark makes
into a layer's public function (and, through :meth:`Tracer.instrument`,
per call a layer makes into another layer's public method inside the
benchmark process).  Each span carries the program's own
:class:`~repro.obs.registry.MetricsRegistry` deltas across the call, so
counts are read where the work happened.  Nothing here touches ``src/``:
instrumentation is a class-attribute wrapper installed only around traced
iterations and removed afterwards.

Self time is a span's duration minus the part of it its children cover;
the root ``iteration`` span's self time is the unattributed remainder, so
layer self times plus the remainder equal the traced iteration time.

Work that runs in pool workers has no span of its own.  Backend runs that
``tomography_error`` fans out to its pool are charged to the execution
layer at their summed in-worker seconds divided by the worker count (the
wall time the pool spent on them with both workers busy) and taken out of
the enclosing scoring span's self time.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.registry import get_registry

#: Registry counters read at every span boundary.
COUNTERS = (
    "parallel.tasks",
    "rb.sequences",
    "campaign.runs",
    "campaign.experiments",
    "backend.runs",
    "backend.trajectories",
    "smt.nodes_explored",
    "smt.windows_solved",
    "schedule.pairs_candidate",
    "schedule.pairs_serialized",
)

#: Registry histograms whose exact sum and count are read at span boundaries.
HISTOGRAMS = (
    "parallel.task.queue_seconds",
    "parallel.task.exec_seconds",
    "backend.run_seconds",
    "rb.experiment_seconds",
)

#: Layers in report order; ``iteration`` is the root of each traced iteration.
LAYERS = ("characterization", "scheduling", "transpiler", "backend",
          "metrics", "fleet")


def read_registry() -> Dict[str, float]:
    """The counters and histogram sums/counts the per-layer metrics use."""
    snap = get_registry().snapshot()
    out = {name: float(snap["counters"].get(name, 0.0)) for name in COUNTERS}
    for name in HISTOGRAMS:
        hist = snap["histograms"].get(name)
        out[f"{name}.sum"] = float(hist["sum"]) if hist else 0.0
        out[f"{name}.count"] = float(hist["count"]) if hist else 0.0
    return out


@dataclass
class Span:
    """One call: name, layer, interval, parent span, and iteration id."""

    id: int
    name: str
    layer: str
    iteration: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    delta: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "iteration": self.iteration, "parent": self.parent,
                "start": self.start, "end": self.end, "delta": self.delta}


class Tracer:
    """Records spans while enabled; a no-op otherwise.

    Spans are recorded only in the process that created the tracer, so an
    instrumented method inherited by a forked pool worker runs unwrapped.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.iteration = -1
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._patches: List[Tuple[type, str, object]] = []

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        if not self.enabled or os.getpid() != self._pid:
            yield
            return
        record = Span(
            id=self._next_id, name=name, layer=layer,
            iteration=self.iteration,
            parent=self._stack[-1].id if self._stack else None,
            start=0.0,
        )
        self._next_id += 1
        before = read_registry()
        record.start = time.perf_counter()
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            after = read_registry()
            record.delta = {k: after[k] - before[k] for k in after}
            self.spans.append(record)

    def instrument(self, owner: type, attr: str, layer: str) -> None:
        """Wrap ``owner.attr`` so every call records a span in ``layer``."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(layer, f"{owner.__name__}.{attr}"):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Remove every wrapper :meth:`instrument` installed."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def attribute(spans: List[Span], workers: int) -> Dict[str, float]:
    """Per-layer totals over a set of traced iterations.

    Returns ``<layer>.self_s`` (exclusive seconds), ``<layer>.busy_s``
    (seconds inside the layer's outermost spans), ``<layer>.calls``
    (outermost spans), ``fleet.campaigns`` (campaign spans inside a fleet
    run), ``trace.unattributed_s`` (the iteration spans' own time) and
    ``trace.iteration_s``.
    """
    by_id = {s.id: s for s in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    own = {
        s.id: s.seconds - _covered(
            [(c.start, c.end) for c in children.get(s.id, [])],
            s.start, s.end,
        )
        for s in spans
    }
    chains = {s.id: _ancestors(s, by_id) for s in spans}

    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS
           for kind in ("self_s", "busy_s", "calls")}
    out.update({"fleet.campaigns": 0.0, "trace.unattributed_s": 0.0,
                "trace.iteration_s": 0.0})
    # Backend seconds each scoring span saw run in this process.
    in_process: Dict[int, float] = {}
    for s in spans:
        chain = chains[s.id]
        if s.layer == "iteration":
            out["trace.unattributed_s"] += own[s.id]
            out["trace.iteration_s"] += s.seconds
            continue
        out[f"{s.layer}.self_s"] += own[s.id]
        if any(a.layer == s.layer for a in chain):
            continue
        out[f"{s.layer}.busy_s"] += s.seconds
        out[f"{s.layer}.calls"] += 1
        if s.layer == "characterization" and any(a.layer == "fleet"
                                                 for a in chain):
            out["fleet.campaigns"] += 1
        if s.layer == "backend":
            for a in chain:
                if a.layer == "metrics":
                    in_process[a.id] = (in_process.get(a.id, 0.0)
                                        + s.delta["backend.run_seconds.sum"])
    for s in spans:
        if s.layer != "metrics" or any(a.layer == "metrics"
                                       for a in chains[s.id]):
            continue
        pooled = (s.delta["backend.run_seconds.sum"]
                  - in_process.get(s.id, 0.0))
        share = min(own[s.id], max(0.0, pooled / workers))
        out["metrics.self_s"] -= share
        out["backend.self_s"] += share
        out["backend.busy_s"] += share
    return out


def _ancestors(span: Span, by_id: Dict[int, Span]) -> List[Span]:
    chain = []
    while span.parent is not None:
        span = by_id[span.parent]
        chain.append(span)
    return chain
