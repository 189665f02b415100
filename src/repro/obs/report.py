"""Render any obs artefact for humans (or, via ``--format json``, tools).

Backs the ``python -m repro.obs report`` CLI: given a trace file, prints
its span tree with wall times and a top-k table of its counters; metrics
snapshots, manifests, diff documents, profiles, scorecards, single
history records, and whole ``.jsonl`` history stores each get their
matching table.  All functions
return strings so tests and notebooks can use them directly;
:func:`load_report_document` is the machine-readable side — it resolves a
source to its canonical JSON document for ``--format json``.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .diff import DIFF_SCHEMA, format_diff_report
from .history import (HISTORY_SCHEMA, RunHistory, RunRecord,
                      format_history_report)
from .manifest import MANIFEST_SCHEMA, RunManifest
from .profile import PROFILE_SCHEMA, format_profile_report
from .registry import METRICS_SCHEMA
from .scorecard import SCORECARD_SCHEMA, format_scorecard_report
from .trace import Span, Trace, _load_document, read_trace

#: Number of counters shown in the "top counters" table by default.
DEFAULT_TOP_K = 12


def format_span_tree(trace: Trace) -> str:
    """The trace as an indented span tree with per-span wall times."""
    lines = [f"trace {trace.name!r}"
             + (f"  (run {trace.run_id})" if trace.run_id else "")]
    if trace.meta:
        for key in sorted(trace.meta):
            lines.append(f"  meta {key} = {trace.meta[key]}")
    total = trace.total_seconds or 1e-12

    def emit(node: Span, prefix: str, is_last: bool) -> None:
        branch = "└─ " if is_last else "├─ "
        share = 100.0 * node.seconds / total
        lines.append(
            f"{prefix}{branch}{node.name:<28s} "
            f"{node.seconds * 1e3:9.2f} ms  {share:5.1f}%"
        )
        extension = "   " if is_last else "│  "
        for i, child in enumerate(node.children):
            emit(child, prefix + extension, i == len(node.children) - 1)

    for i, node in enumerate(trace.spans):
        emit(node, "", i == len(trace.spans) - 1)
    lines.append(f"total {trace.total_seconds * 1e3:.2f} ms "
                 f"across {sum(1 for _ in trace.walk())} spans")
    return "\n".join(lines)


def format_top_counters(trace: Trace, top_k: int = DEFAULT_TOP_K) -> str:
    """The trace's summed counters, largest first, as a two-column table."""
    counters = trace.counters()
    if not counters:
        return "(no counters recorded)"
    ranked = sorted(counters.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    shown = ranked[:top_k]
    width = max(len(name) for name, _ in shown)
    lines = [f"top {len(shown)} of {len(ranked)} counters:"]
    for name, value in shown:
        lines.append(f"  {name:<{width}s}  {value:>14g}")
    return "\n".join(lines)


def format_trace_report(source, top_k: int = DEFAULT_TOP_K) -> str:
    """Full report for a trace document: span tree + top-k counters."""
    trace = read_trace(source)
    return (format_span_tree(trace) + "\n\n"
            + format_top_counters(trace, top_k=top_k))


def format_metrics_report(doc: dict, top_k: int = DEFAULT_TOP_K) -> str:
    """Human-readable tables for a ``repro.obs.metrics/v1`` snapshot."""
    lines: List[str] = []
    counters = doc.get("counters", {})
    if counters:
        ranked = sorted(counters.items(),
                        key=lambda kv: (-abs(kv[1]), kv[0]))[:top_k]
        width = max(len(n) for n, _ in ranked)
        lines.append(f"counters (top {len(ranked)} of {len(counters)}):")
        for name, value in ranked:
            lines.append(f"  {name:<{width}s}  {value:>14g}")
    gauges = doc.get("gauges", {})
    if gauges:
        width = max(len(n) for n in gauges)
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}s}  {gauges[name]:>14g}")
    histograms = doc.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            count = hist.get("count", 0)
            mean = hist["sum"] / count if count else 0.0
            lines.append(
                f"  {name}: n={count} mean={mean:g} "
                f"min={hist.get('min')} max={hist.get('max')}"
            )
    return "\n".join(lines) if lines else "(empty metrics snapshot)"


def format_manifest_report(manifest: RunManifest) -> str:
    """A one-screen summary of a run manifest."""
    lines = [f"run {manifest.run_id}"
             + (f"  ({manifest.name})" if manifest.name else ""),
             f"  created_at: {manifest.created_at}"]
    if manifest.git:
        sha = manifest.git.get("sha", "?")
        dirty = " (dirty)" if manifest.git.get("dirty") else ""
        lines.append(f"  git: {sha}{dirty}")
    if manifest.workers is not None:
        lines.append(f"  workers: {manifest.workers}")
    for label, mapping in (("config", manifest.config),
                           ("seeds", manifest.seeds),
                           ("environment", manifest.environment),
                           ("results", manifest.results)):
        if mapping:
            lines.append(f"  {label}:")
            for key in sorted(mapping):
                lines.append(f"    {key}: {mapping[key]}")
    return "\n".join(lines)


def format_record_report(record: RunRecord) -> str:
    """A one-screen summary of a single history record."""
    sha = (record.git_sha or "?")[:10]
    dirty = "*" if record.git_dirty else ""
    lines = [f"run {record.run_id}  ({record.name})  git {sha}{dirty}"]
    if record.series:
        width = max(len(n) for n in record.series)
        for name in sorted(record.series):
            lines.append(f"  {name:<{width}s}  {record.series[name]:>14g}")
    if record.documents:
        lines.append(f"  documents: {', '.join(sorted(record.documents))}")
    return "\n".join(lines)


def report(source, top_k: int = DEFAULT_TOP_K) -> str:
    """Render any obs artefact (trace, metrics snapshot, manifest, diff,
    profile, scorecard, history record, or ``.jsonl``
    history store — dict, JSON text, or path) as human-readable text."""
    if isinstance(source, str) and source.endswith(".jsonl"):
        return format_history_report(RunHistory(source))
    doc = _load_document(source)
    schema: Optional[str] = doc.get("schema")
    if schema == METRICS_SCHEMA:
        return format_metrics_report(doc, top_k=top_k)
    if schema == MANIFEST_SCHEMA:
        return format_manifest_report(RunManifest.from_dict(doc))
    if schema == DIFF_SCHEMA:
        return format_diff_report(doc)
    if schema == PROFILE_SCHEMA:
        return format_profile_report(doc)
    if schema == SCORECARD_SCHEMA:
        return format_scorecard_report(doc)
    if schema == HISTORY_SCHEMA:
        return format_record_report(RunRecord.from_dict(doc))
    return format_trace_report(doc, top_k=top_k)


def load_report_document(source) -> dict:
    """The canonical JSON document behind a report source.

    For ordinary artefacts this is the parsed document itself; a
    ``.jsonl`` history store resolves to a wrapper listing its records.
    Used by ``python -m repro.obs report --format json``.
    """
    if isinstance(source, str) and source.endswith(".jsonl"):
        history = RunHistory(source)
        return {
            "schema": HISTORY_SCHEMA,
            "store": history.path,
            "records": [r.to_dict() for r in history.records()],
            "corrupt_lines": history.corrupt_lines,
        }
    doc = _load_document(source)
    if "schema" not in doc:
        raise ValueError("document has no 'schema' key")
    return doc


def report_json(sources: List) -> str:
    """Many sources as one JSON array document (stable key order)."""
    return json.dumps([load_report_document(s) for s in sources],
                      indent=2, sort_keys=True)
