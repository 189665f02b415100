"""Nested wall-time spans and the ``repro.obs.trace/v2`` JSON schema.

This module is the trace core of the unified observability layer, and
:func:`span` is the only way a span is recorded:

* **Nesting.**  Spans form a tree.  A thread-local *span stack* tracks the
  currently-open span; :func:`span` attaches the finished record as a
  child of whatever span encloses it.  The parallel engine, the SMT
  solver, and the noisy backend open spans of their own, so a campaign
  or compile run produces one tree covering pipeline passes, per-map
  parallel task timing, and solver time.
* **Stage traces.**  A stage that hands its caller a :class:`Trace` (the
  campaign, the fleet controller, the pass pipeline) opens one root span
  and builds ``Trace(root.name, spans=root.children, meta=...)`` from it,
  so the same records sit in the stage's trace and in any enclosing
  :class:`~repro.obs.session.Session` tree.
* **Schema v2.**  Traces serialize as ``repro.obs.trace/v2``: top-level
  key ``name``, span lists under ``spans``, each span carrying its own
  nested ``spans``, and optional ``run_id`` / ``meta``.  :func:`read_trace`
  reads a document back into a live :class:`Trace`.

This module deliberately imports nothing from the rest of :mod:`repro` so
any layer (core, rb, smt, transpiler, experiments) can record spans
without creating an import cycle.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

#: Schema identifier stamped into every exported trace document.
TRACE_SCHEMA = "repro.obs.trace/v2"


@dataclass
class Span:
    """One timed region: wall time, counters, and child spans."""

    name: str
    seconds: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto one counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def add_counters(self, counters: Dict[str, float]) -> None:
        """Accumulate a whole counter dict into this span.

        Used when a span fans work out to parallel tasks that each return
        their own counter dict (e.g. per-experiment ``rb.*`` counters): the
        span sums the contributions rather than overwriting them.
        """
        for name, value in counters.items():
            self.add(name, value)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_counters(self) -> Dict[str, float]:
        """Counters summed over this span and every descendant."""
        totals: Dict[str, float] = {}
        for node in self.walk():
            for name, value in node.counters.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def to_dict(self) -> dict:
        """The span as a ``repro.obs.trace/v2`` span object."""
        doc = {
            "name": self.name,
            "seconds": self.seconds,
            "counters": dict(self.counters),
        }
        if self.children:
            doc["spans"] = [child.to_dict() for child in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        """Rebuild a span (leaf spans have no ``spans`` key)."""
        return cls(
            name=doc["name"],
            seconds=float(doc.get("seconds", 0.0)),
            counters={k: float(v) for k, v in doc.get("counters", {}).items()},
            children=[cls.from_dict(c) for c in doc.get("spans", [])],
        )


@dataclass
class Trace:
    """An ordered tree of every span one run recorded.

    ``name`` is the root name (``compile[...]``, ``characterize[...]``,
    ``fleet.run``, a session name).  ``run_id`` and ``meta`` are optional:
    a session id and free-form metadata such as the device fingerprint.
    """

    name: str
    spans: List[Span] = field(default_factory=list)
    run_id: Optional[str] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Summed wall time of the top-level spans (children are within)."""
        return sum(span.seconds for span in self.spans)

    @property
    def pass_names(self) -> List[str]:
        """Top-level span names, in execution order."""
        return [span.name for span in self.spans]

    def walk(self) -> Iterator[Span]:
        """Every span in the tree, depth first."""
        for span in self.spans:
            yield from span.walk()

    def counters(self) -> Dict[str, float]:
        """Counters summed across every span in the tree."""
        totals: Dict[str, float] = {}
        for span in self.walk():
            for name, value in span.counters.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def counter(self, name: str, default: float = 0.0) -> float:
        """One summed counter (see :meth:`counters`)."""
        return self.counters().get(name, default)

    def span(self, name: str) -> Span:
        """The first span (anywhere in the tree) with ``name``."""
        for s in self.walk():
            if s.name == name:
                return s
        raise KeyError(f"no span named {name!r} in trace {self.name!r}")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The trace as a ``repro.obs.trace/v2`` document."""
        doc = {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "total_seconds": self.total_seconds,
            "counters": self.counters(),
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.run_id is not None:
            doc["run_id"] = self.run_id
        if self.meta:
            doc["meta"] = dict(self.meta)
        return doc

    def to_json(self, indent: Optional[int] = None) -> str:
        """The v2 document as JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    def format(self) -> str:
        """A human-readable span-tree table (used by the examples)."""
        lines = [f"trace {self.name!r}: "
                 f"{self.total_seconds * 1e3:.1f} ms total"]
        if self.run_id:
            lines[0] += f"  (run {self.run_id})"

        def emit(span: Span, depth: int) -> None:
            pad = "  " * (depth + 1)
            lines.append(f"{pad}{span.name:24s} {span.seconds * 1e3:9.2f} ms")
            for counter in sorted(span.counters):
                value = span.counters[counter]
                lines.append(f"{pad}  {counter:30s} {value:>10g}")
            for child in span.children:
                emit(child, depth + 1)

        for span in self.spans:
            emit(span, 0)
        return "\n".join(lines)

    @classmethod
    def from_dict(cls, doc: dict) -> "Trace":
        """Rebuild a trace from a ``repro.obs.trace/v2`` document."""
        schema = doc.get("schema")
        if schema != TRACE_SCHEMA:
            raise ValueError(f"not a trace document (schema={schema!r})")
        return cls(
            name=doc["name"],
            spans=[Span.from_dict(s) for s in doc.get("spans", [])],
            run_id=doc.get("run_id"),
            meta=dict(doc.get("meta", {})),
        )


# ----------------------------------------------------------------------
# the thread-local span stack
# ----------------------------------------------------------------------
_STACK = threading.local()


def _stack() -> List[Span]:
    try:
        return _STACK.spans
    except AttributeError:
        _STACK.spans = []
        return _STACK.spans


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or None."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def span(name: str) -> Iterator[Span]:
    """Open a nested wall-time span.

    The yielded :class:`Span` accepts counters (``record.add(...)`` or
    ``record.counters[...] = ...``).  On exit the span's wall time is
    stamped and the record attaches itself as a child of the enclosing
    span, if any — so independently-instrumented layers (pipeline passes,
    the parallel engine, the SMT solver) compose into one tree without
    knowing about each other.  With no enclosing span the record simply
    floats free: the caller holds the root (a
    :class:`~repro.obs.session.Session` opens one for a whole run).
    """
    record = Span(name=name)
    stack = _stack()
    stack.append(record)
    started = time.perf_counter()
    try:
        yield record
    finally:
        record.seconds = time.perf_counter() - started
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(record)


# ----------------------------------------------------------------------
# the reader
# ----------------------------------------------------------------------
def read_trace(source: Union[str, dict]) -> Trace:
    """Read one ``repro.obs.trace/v2`` trace (dict, JSON text, or path)."""
    return Trace.from_dict(_load_document(source))


def _load_document(source: Union[str, dict]) -> dict:
    """Dict → itself; JSON text → parsed; anything else → path to read."""
    if isinstance(source, dict):
        return source
    text = str(source)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as handle:
        return json.load(handle)
