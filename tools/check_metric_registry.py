#!/usr/bin/env python3
"""Lint: the name registry in the docs and the names src/ emits agree.

``docs/observability.md`` carries the name registry — the tables of
metric, span, and event names that make one run's artefacts comparable
with the next's.  This check keeps the registry honest in both
directions:

* **Emitted → documented.**  It scans ``src/**/*.py`` for string-literal
  names passed to the metric instruments (``registry.inc/set/observe``)
  and to the event emitters (``log_event`` / ``EventLog.log``), and fails
  if any emitted name does not appear in the docs.  Accessor reads
  (``trace.counter(...)``, ``registry.gauge(...)``) are not emissions and
  are ignored.  Only dotted names are considered — a plain word passed
  to some unrelated ``.set()`` is not a metric.  Span names — the
  string-literal first argument of ``span(`` / ``obs_span(`` — must match
  a backticked name in the "Span name registry" table itself (bare words
  count, since the call form is unambiguous; prose elsewhere in the doc
  does not, since a word like ``plan`` appears throughout it).
* **Documented → emitted.**  Every row of the "Metric name registry" and
  "Span name registry" tables must name something ``src/`` still emits:
  a quoted string literal equal to the name, or — for a templated name
  such as ``fleet.staleness[<device>]`` — starting with its prefix before
  ``<``.  So the registry shrinks with the code.

Names built with f-strings are reduced to their literal prefix up to the
first ``{`` (so ``f"fleet.staleness[{name}]"`` is satisfied by the
documented ``fleet.staleness[<device>]`` row).  Names that are
deliberately undocumented can be listed in ``ALLOWED``; rows that name
nothing a literal can show can be listed in ``ALLOWED_ROWS``.

Stdlib only; run from the repo root (CI docs job)::

    python tools/check_metric_registry.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
DOCS = REPO_ROOT / "docs" / "observability.md"

#: Names allowed to stay out of the docs registry (justify each entry).
ALLOWED: set = set()

#: Registry rows with no literal in src/ to match (justify each entry).
ALLOWED_ROWS = {
    # The Session root span is named by the caller: Session(name).
    "<session name>",
}

#: The registry tables checked in both directions, by heading.
METRIC_TABLE = "Metric name registry"
SPAN_TABLE = "Span name registry"

#: Call sites whose first string-literal argument is a metric/event name.
#: Accessors like ``registry.counter(...)`` / ``trace.counter(...)`` are
#: excluded — they read; emission goes through inc/set/observe/log.
_CALL_RE = re.compile(
    r"(?:\.inc|\.set|\.observe|\blog_event|\.log)\(\s*"
    r"(?P<prefix>f?)(?P<quote>['\"])(?P<name>[^'\"\n]+)(?P=quote)"
)

#: ``span(`` / ``obs_span(`` calls; ``trace.span(...)`` lookups are reads.
_SPAN_RE = re.compile(
    r"(?<![\w.])(?:obs_)?span\(\s*"
    r"(?P<prefix>f?)(?P<quote>['\"])(?P<name>[^'\"\n]+)(?P=quote)"
)

_NAME_OK = re.compile(r"^[a-z0-9_.\[\]<>-]+$", re.I)


def _literal(match):
    """``(name, is_prefix)`` of a call match; f-strings keep their prefix."""
    name = match.group("name")
    if match.group("prefix"):
        return name.split("{", 1)[0], True
    return name, False


def emitted_names(path: Path):
    """Yield ``(lineno, name, is_prefix)`` for every instrument call."""
    text = path.read_text(encoding="utf-8")
    for match in _CALL_RE.finditer(text):
        name, is_prefix = _literal(match)
        if "." not in name:
            # Dotted names only: everything in the registry namespace is
            # `layer.metric`; bare words are other APIs' string args.
            continue
        if " " in name or not _NAME_OK.match(name):
            continue
        lineno = text.count("\n", 0, match.start()) + 1
        yield lineno, name, is_prefix


def span_names(path: Path):
    """Yield ``(lineno, name, is_prefix)`` for every literal span name."""
    text = path.read_text(encoding="utf-8")
    for match in _SPAN_RE.finditer(text):
        name, is_prefix = _literal(match)
        if not name or " " in name or not _NAME_OK.match(name):
            continue
        lineno = text.count("\n", 0, match.start()) + 1
        yield lineno, name, is_prefix


def table_names(docs_text: str, heading: str) -> List[str]:
    """The backticked names in the first column of one registry table."""
    names: List[str] = []
    in_section = False
    for line in docs_text.splitlines():
        if line.startswith("#"):
            in_section = line.lstrip("#").strip() == heading
            continue
        if not in_section or not line.startswith("|"):
            continue
        cells = line.strip().strip("|").split("|")
        names.extend(re.findall(r"`([^`]+)`", cells[0]))
    return names


def span_documented(name: str, is_prefix: bool, documented: List[str]) -> bool:
    """Does a span name (or f-string prefix) match a documented row?"""
    for entry in documented:
        stem = entry.split("<", 1)[0] if "<" in entry else None
        if is_prefix:
            if entry.startswith(name):
                return True
        elif name == entry or (stem and name.startswith(stem)):
            return True
    return False


def row_emitted(entry: str, src_text: str) -> bool:
    """Does ``src/`` hold a string literal naming this registry row?"""
    if "<" in entry:
        stem = entry.split("<", 1)[0]
        return bool(stem) and re.search(
            r"f?['\"]" + re.escape(stem), src_text) is not None
    return re.search(
        r"(['\"])" + re.escape(entry) + r"\1", src_text) is not None


def check(src: Path, docs: Path) -> List[str]:
    """Every registry problem under ``src`` against ``docs``, one a line."""
    docs_text = docs.read_text(encoding="utf-8")
    documented_spans = table_names(docs_text, SPAN_TABLE)
    problems = []
    sources = sorted(src.rglob("*.py"))
    for path in sources:
        rel = path.relative_to(src.parent)
        for lineno, name, is_prefix in emitted_names(path):
            if name in ALLOWED or name in docs_text:
                continue
            kind = "name prefix" if is_prefix else "name"
            problems.append(f"{rel}:{lineno}: {kind} {name!r} not found in "
                            f"{docs.name}")
        for lineno, name, is_prefix in span_names(path):
            if name in ALLOWED or span_documented(name, is_prefix,
                                                  documented_spans):
                continue
            kind = "span name prefix" if is_prefix else "span name"
            problems.append(f"{rel}:{lineno}: {kind} {name!r} not in the "
                            f"{SPAN_TABLE!r} table of {docs.name}")
    src_text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    for heading in (METRIC_TABLE, SPAN_TABLE):
        for entry in table_names(docs_text, heading):
            if entry in ALLOWED_ROWS or row_emitted(entry, src_text):
                continue
            problems.append(f"{docs.name}: {heading!r} row {entry!r} names "
                            f"nothing {src.name}/ emits (stale row)")
    return problems


def main() -> int:
    problems = check(SRC, DOCS)
    if problems:
        print(f"[check_metric_registry] {len(problems)} registry "
              "problem(s):", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        print("document new names in the registry tables of "
              "docs/observability.md and delete rows whose names src/ no "
              "longer emits (or list them in ALLOWED / ALLOWED_ROWS in this "
              "script, with a reason)", file=sys.stderr)
        return 1
    print("[check_metric_registry] OK: every emitted metric/event/span name "
          "is documented and every registry row is emitted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
