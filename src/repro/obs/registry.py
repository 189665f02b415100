"""Process-wide metrics: counters, gauges, and histograms with stable names.

A :class:`MetricsRegistry` owns three kinds of instruments, all addressed
by stable dotted names (``parallel.tasks``, ``smt.solve.seconds``,
``backend.runs``; the full name registry lives in
``docs/observability.md``):

* :class:`Counter` — a monotonically increasing total (``inc``);
* :class:`Gauge` — a level that can move either way (``set``);
* :class:`Histogram` — a distribution over fixed bucket bounds
  (``observe``), tracking count/sum/min/max plus per-bucket counts.

Registries are thread-safe (one lock around all map operations; the
instruments themselves take the same lock for updates) and serialize to a
plain-JSON snapshot (:meth:`MetricsRegistry.snapshot`, schema
``repro.obs.metrics/v1``).  Snapshots support :meth:`~MetricsRegistry.diff`
and :meth:`~MetricsRegistry.merge`, which is how metrics recorded inside
:mod:`repro.parallel` worker processes flow back: each task ships its
registry *delta* to the parent, and the parent merges it — so
``get_registry()`` reads the same totals no matter how many processes did
the work.

The process-wide default registry (:func:`get_registry`) is what the
instrumented layers write to; tests or embedders can swap it with
:func:`set_registry` / :func:`push_registry`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Schema identifier stamped into metric snapshot documents.
METRICS_SCHEMA = "repro.obs.metrics/v1"

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        """The current total."""
        with self._lock:
            return self.value


class Gauge:
    """A level: the most recent value set."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        """Replace the gauge's value (last write wins)."""
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> float:
        """The most recently set value."""
        with self._lock:
            return self.value


class Histogram:
    """A distribution over fixed bucket upper bounds.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last bound.  Tracks count, sum, min, max.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum",
                 "min", "max", "_lock", "_windows")

    def __init__(self, name: str, lock: threading.RLock,
                 bounds: Sequence[float] = DEFAULT_BUCKETS,
                 windows: Optional[List["DeltaWindow"]] = None):
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock
        # The owning registry's list of open delta windows (shared, so a
        # window opened after this histogram exists still sees it).
        self._windows = windows if windows is not None else []

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for window in self._windows:
                window._note(self.name, value)

    @property
    def mean(self) -> float:
        """The running mean (0.0 when empty)."""
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """The histogram's accumulators as a plain-JSON dict."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
            }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Instruments are created on first use (``registry.counter(name)``) and
    are unique per name within their kind; asking for an existing name
    returns the same instrument.  One name may not be reused across kinds.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Open :class:`DeltaWindow` objects; histograms feed every open
        #: window so per-window extremes stay exact (see :meth:`diff`).
        self._windows: List["DeltaWindow"] = []

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------
    def _check_name(self, name: str, kind: Dict) -> None:
        for other in (self._counters, self._gauges, self._histograms):
            if other is not kind and name in other:
                raise ValueError(
                    f"metric name {name!r} already used by another kind"
                )

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            if name not in self._counters:
                self._check_name(name, self._counters)
                self._counters[name] = Counter(name, self._lock)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        with self._lock:
            if name not in self._gauges:
                self._check_name(name, self._gauges)
                self._gauges[name] = Gauge(name, self._lock)
            return self._gauges[name]

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            if name not in self._histograms:
                self._check_name(name, self._histograms)
                self._histograms[name] = Histogram(
                    name, self._lock, bounds, self._windows,
                )
            return self._histograms[name]

    # convenience one-liners for the instrumented layers
    def inc(self, name: str, amount: float = 1.0) -> None:
        """``counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        """``gauge(name).set(value)``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """``histogram(name).observe(value)``."""
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole registry as a plain-JSON ``repro.obs.metrics/v1`` doc."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "counters": {n: c.snapshot()
                             for n, c in self._counters.items()},
                "gauges": {n: g.snapshot() for n, g in self._gauges.items()},
                "histograms": {n: h.snapshot()
                               for n, h in self._histograms.items()},
            }

    def delta_window(self) -> "DeltaWindow":
        """Open a :class:`DeltaWindow` over this registry.

        The window records a baseline snapshot *and* the exact min/max of
        every histogram observation made while it is open, so
        :meth:`DeltaWindow.delta` produces a delta whose histogram
        extremes are those of the window itself — not the conservative
        cumulative bounds a bare :meth:`diff` of two snapshots is limited
        to.  This is what pool workers and sessions use, so merged parent
        histograms are exact.
        """
        return DeltaWindow(self)

    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """The delta snapshot ``after - before``.

        Counters and histogram accumulators subtract; gauges keep their
        ``after`` value (a gauge is a level, not an accumulator).  Used to
        ship per-task metric deltas out of pool workers.
        """
        out = {"schema": METRICS_SCHEMA, "counters": {}, "gauges": {},
               "histograms": {}}
        before_counters = before.get("counters", {})
        for name, value in after.get("counters", {}).items():
            delta = value - before_counters.get(name, 0.0)
            if delta:
                out["counters"][name] = delta
        out["gauges"] = dict(after.get("gauges", {}))
        before_hists = before.get("histograms", {})
        for name, hist in after.get("histograms", {}).items():
            prior = before_hists.get(name)
            if prior is None:
                out["histograms"][name] = dict(hist)
                continue
            counts = [a - b for a, b in zip(hist["bucket_counts"],
                                            prior["bucket_counts"])]
            count = hist["count"] - prior["count"]
            if count:
                out["histograms"][name] = {
                    "bounds": list(hist["bounds"]),
                    "bucket_counts": counts,
                    "count": count,
                    "sum": hist["sum"] - prior["sum"],
                    # Two cumulative snapshots only bound the window's
                    # extremes; a DeltaWindow (delta_window()) replaces
                    # these with the exact per-window min/max.
                    "min": hist["min"],
                    "max": hist["max"],
                }
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (usually a :meth:`diff` delta) into this registry.

        Counters add, gauges take the incoming value, histograms add
        bucket counts and accumulators.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counter(name).inc(value)
            for name, value in snapshot.get("gauges", {}).items():
                self.gauge(name).set(value)
            for name, hist in snapshot.get("histograms", {}).items():
                target = self.histogram(name, hist["bounds"])
                if list(target.bounds) != list(hist["bounds"]):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ"
                    )
                for i, c in enumerate(hist["bucket_counts"]):
                    target.bucket_counts[i] += c
                target.count += hist["count"]
                target.sum += hist["sum"]
                for key in ("min", "max"):
                    value = hist.get(key)
                    if value is None:
                        continue
                    current = getattr(target, key)
                    if current is None:
                        setattr(target, key, value)
                    else:
                        pick = min if key == "min" else max
                        setattr(target, key, pick(current, value))

    def reset(self) -> None:
        """Drop every instrument (tests; not used by the library)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class DeltaWindow:
    """An open delta window over a registry (see ``delta_window()``).

    Captures a baseline snapshot at open and accumulates the exact
    min/max of every histogram observation made while open; ``delta()``
    is :meth:`MetricsRegistry.diff` with the histogram extremes replaced
    by the window's own.  Thread-safe: histogram observations note their
    value under the registry lock.  Close the window (``close()`` or use
    it as a context manager) when done — open windows cost one dict probe
    per observation.
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._extremes: Dict[str, List[float]] = {}
        self._closed = False
        with registry._lock:
            self.baseline = registry.snapshot()
            registry._windows.append(self)

    def _note(self, name: str, value: float) -> None:
        # Called by Histogram.observe under the registry lock.
        pair = self._extremes.get(name)
        if pair is None:
            self._extremes[name] = [value, value]
        else:
            if value < pair[0]:
                pair[0] = value
            if value > pair[1]:
                pair[1] = value

    def delta(self) -> dict:
        """The exact delta snapshot since the window opened."""
        with self._registry._lock:
            out = MetricsRegistry.diff(self.baseline,
                                       self._registry.snapshot())
            for name, hist in out.get("histograms", {}).items():
                pair = self._extremes.get(name)
                if pair is not None:
                    hist["min"], hist["max"] = pair[0], pair[1]
            return out

    def close(self) -> None:
        """Stop tracking (idempotent)."""
        with self._registry._lock:
            if not self._closed:
                self._closed = True
                if self in self._registry._windows:
                    self._registry._windows.remove(self)

    def __enter__(self) -> "DeltaWindow":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the process-wide default registry
# ----------------------------------------------------------------------
_DEFAULT = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer writes to."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _DEFAULT
    with _REGISTRY_LOCK:
        previous = _DEFAULT
        _DEFAULT = registry
        return previous


@contextmanager
def push_registry(registry: Optional[MetricsRegistry] = None
                  ) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (default: a fresh one) as the
    process-wide registry.  Restores the previous registry on exit —
    the isolation hook tests and sessions use."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def metrics_snapshot() -> dict:
    """Snapshot of the process-wide registry."""
    return get_registry().snapshot()
