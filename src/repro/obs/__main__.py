"""Command-line entry point for the observability layer.

Six subcommands::

    python -m repro.obs report  <files...>  [--format text|json]
    python -m repro.obs diff    <baseline> <candidate> [--gate]
    python -m repro.obs diff    <candidate> --history H.jsonl --last 5 --gate
    python -m repro.obs profile <trace> [--format text|collapsed|speedscope]
    python -m repro.obs history <store.jsonl> [--last N] [--compact N]
    python -m repro.obs tail    <snapshots.jsonl> [--follow] [--last N]
    python -m repro.obs top     <snapshots.jsonl> [--follow]

``report`` renders any obs artefact (trace, metrics, manifest, diff,
profile, scorecard, history record or store); ``--format json`` emits the
canonical document(s) instead of text.  ``diff`` compares two runs — or a
candidate against a history window — with the noise-aware comparator of
:mod:`repro.obs.diff`; with ``--gate`` it exits nonzero when anything
regressed (the CI hook).  ``profile`` turns a v2 trace into self/total
attribution, collapsed stacks, or a speedscope document.  ``history``
lists or compacts a run store.  ``tail`` streams a live plane's snapshot
JSONL (one line per ``repro.obs.snapshot/v1`` document; ``--follow``
keeps reading as the run appends).  ``top`` renders the latest snapshot
as a fleet/campaign/parallel progress board and, with ``--follow``,
redraws it live.

Exit codes are stable: **0** success (and, for ``diff --gate``, no
regression); **1** bad input — unreadable file, unknown schema, empty
history; **2** the gate tripped (``diff --gate`` found a regression).
"""

from __future__ import annotations

import argparse
import json as _json_mod
import sys
from typing import List, Optional

from .diff import DiffThresholds, diff_records, format_diff
from .history import RunHistory, format_history_report, load_run_record
from .live.snapshot import SNAPSHOT_SCHEMA, read_snapshots, tail_records
from .profile import (collapsed_stacks, profile_trace, speedscope_document,
                      validate_speedscope)
from .report import DEFAULT_TOP_K, report, report_json

#: Exit code for bad input (unreadable file, unknown schema, empty store).
EXIT_ERROR = 1
#: Exit code when ``diff --gate`` finds a regression.
EXIT_GATE = 2


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs`` CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and compare repro observability artefacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report",
        help="render an obs artefact (trace/metrics/manifest/diff/"
             "profile/scorecard/history) as text or JSON",
    )
    rep.add_argument("files", nargs="+",
                     help="artefact JSON file(s) to render")
    rep.add_argument("--top-k", type=int, default=DEFAULT_TOP_K,
                     help="counters shown in the top-counters table "
                          f"(default {DEFAULT_TOP_K})")
    rep.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")

    dif = sub.add_parser(
        "diff",
        help="noise-aware comparison of two runs, or one run vs. a "
             "history baseline window",
    )
    dif.add_argument("baseline",
                     help="baseline run (manifest/history record/.jsonl "
                          "store), or the candidate when --history is used")
    dif.add_argument("candidate", nargs="?",
                     help="candidate run (omit when using --history)")
    dif.add_argument("--history", metavar="STORE",
                     help="history store supplying the baseline window "
                          "(the positional argument becomes the candidate)")
    dif.add_argument("--last", type=int, default=5,
                     help="baseline window size from --history (default 5)")
    dif.add_argument("--name", default=None,
                     help="restrict the --history window to one run name "
                          "(default: the candidate's name)")
    dif.add_argument("--gate", action="store_true",
                     help=f"exit {EXIT_GATE} when any series regressed")
    dif.add_argument("--rel", type=float, default=DiffThresholds.rel,
                     help="relative tolerance around the baseline median "
                          f"(default {DiffThresholds.rel})")
    dif.add_argument("--mad-scale", type=float,
                     default=DiffThresholds.mad_scale,
                     help="MAD multiplier in the noise band "
                          f"(default {DiffThresholds.mad_scale})")
    dif.add_argument("--show-unchanged", action="store_true",
                     help="list unchanged series too")
    dif.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")

    prof = sub.add_parser(
        "profile",
        help="deterministic span profile of a trace (self/total, "
             "collapsed stacks, speedscope)",
    )
    prof.add_argument("trace", help="trace JSON file (repro.obs.trace/v2)")
    prof.add_argument("--format",
                      choices=("text", "json", "collapsed", "speedscope"),
                      default="text", help="output format (default text)")
    prof.add_argument("--out", default=None,
                      help="write output to this path instead of stdout")
    prof.add_argument("--top-k", type=int, default=15,
                      help="rows in the text table (default 15)")

    hist = sub.add_parser(
        "history",
        help="list or compact an append-only run-history store",
    )
    hist.add_argument("store", help="history .jsonl file")
    hist.add_argument("--last", type=int, default=10,
                      help="records shown (default 10)")
    hist.add_argument("--name", default=None,
                      help="only records for this run name")
    hist.add_argument("--compact", type=int, metavar="KEEP", default=None,
                      help="retention: keep the newest KEEP records per "
                           "run name, rewrite the store")

    tail = sub.add_parser(
        "tail",
        help="stream a live plane's snapshot JSONL (tolerates torn "
             "lines from a concurrent writer)",
    )
    tail.add_argument("stream", help="snapshot .jsonl file")
    tail.add_argument("--follow", action="store_true",
                      help="keep reading as the file grows")
    tail.add_argument("--interval", type=float, default=0.2,
                      help="poll period while following (default 0.2s)")
    tail.add_argument("--max-seconds", type=float, default=None,
                      help="stop following after this many seconds")
    tail.add_argument("--last", type=int, default=None,
                      help="only print the last N existing records "
                           "(then follow, if requested)")
    tail.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (default text)")

    top = sub.add_parser(
        "top",
        help="terminal progress board from the latest snapshot "
             "(fleet / campaign / parallel / alerts)",
    )
    top.add_argument("stream", help="snapshot .jsonl file")
    top.add_argument("--follow", action="store_true",
                     help="redraw as new snapshots arrive")
    top.add_argument("--interval", type=float, default=0.5,
                     help="poll period while following (default 0.5s)")
    top.add_argument("--max-seconds", type=float, default=None,
                     help="stop following after this many seconds")
    return parser


def _warn_dirty(label: str, record) -> None:
    """Print a stderr warning when a compared run came from a dirty tree."""
    if record.git_dirty:
        print(f"warning: {label} run {record.run_id!r} was recorded from a "
              f"dirty working tree — its numbers may not match its SHA",
              file=sys.stderr)


def _cmd_report(args: argparse.Namespace) -> int:
    """``report``: render each file; returns a stable exit code."""
    try:
        if args.format == "json":
            output = report_json(list(args.files))
        else:
            output = "\n\n".join(
                report(path, top_k=args.top_k) for path in args.files
            )
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    try:
        print(output)
    except BrokenPipeError:
        pass
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """``diff``: compare runs; exit 2 on a gated regression."""
    thresholds = DiffThresholds(rel=args.rel, mad_scale=args.mad_scale)
    try:
        if args.history:
            candidate = load_run_record(args.baseline)
            name = args.name if args.name is not None else candidate.name
            window = RunHistory(args.history).last(args.last, name=name)
            if not window:
                raise ValueError(
                    f"history {args.history!r} has no records"
                    + (f" named {name!r}" if name else "")
                )
            baseline = window
        else:
            if not args.candidate:
                raise ValueError(
                    "diff needs two runs, or one run plus --history"
                )
            baseline_record = load_run_record(args.baseline)
            candidate = load_run_record(args.candidate)
            _warn_dirty("baseline", baseline_record)
            baseline = baseline_record
        _warn_dirty("candidate", candidate)
        run_diff = diff_records(baseline, candidate, thresholds)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        print(run_diff.to_json(indent=2))
    else:
        print(format_diff(run_diff, show_unchanged=args.show_unchanged))
    if args.gate:
        code = run_diff.gate_exit_code()
        if code:
            print(f"gate: {len(run_diff.regressions)} series regressed",
                  file=sys.stderr)
        return code
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``profile``: emit the requested view of one trace."""
    import json as _json

    try:
        if args.format == "collapsed":
            output = collapsed_stacks(args.trace)
        elif args.format == "speedscope":
            doc = speedscope_document(args.trace)
            problems = validate_speedscope(doc)
            if problems:
                raise ValueError(
                    "speedscope export failed validation: "
                    + "; ".join(problems)
                )
            output = _json.dumps(doc, indent=2, sort_keys=True)
        elif args.format == "json":
            output = _json.dumps(profile_trace(args.trace).to_dict(),
                                 indent=2, sort_keys=True)
        else:
            output = profile_trace(args.trace).format(top_k=args.top_k)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {args.trace}: {error}", file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
        print(f"wrote {args.format} profile to {args.out}")
    else:
        try:
            print(output)
        except BrokenPipeError:
            pass
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    """``history``: list the store (and optionally compact it)."""
    history = RunHistory(args.store)
    try:
        if args.compact is not None:
            dropped = history.compact(keep_last=args.compact)
            print(f"compacted {args.store}: dropped {dropped} record(s)")
        print(format_history_report(history, last=args.last,
                                    name=args.name))
    except (OSError, ValueError) as error:
        print(f"error: {args.store}: {error}", file=sys.stderr)
        return EXIT_ERROR
    return 0


def _format_tail_line(record: dict) -> str:
    """One text line per tailed record (snapshots get a digest)."""
    if record.get("schema") != SNAPSHOT_SCHEMA:
        return _json_mod.dumps(record, sort_keys=True)
    series = record.get("series", {})
    parts = [f"[{record.get('seq', '?'):>4}]",
             f"t=+{record.get('uptime_seconds', 0.0):.1f}s"]
    for key in ("fleet.day", "fleet.ticks", "fleet.epochs_published",
                "fleet.max_staleness", "fleet.breakers_open",
                "parallel.tasks", "obs.live.heartbeats"):
        value = series.get(key)
        if value is not None:
            short = key.split(".", 1)[1] if "." in key else key
            text = (f"{value:g}" if isinstance(value, (int, float))
                    else str(value))
            parts.append(f"{short}={text}")
    firing = record.get("alerts", {}).get("firing", [])
    parts.append("alerts=" + (",".join(firing) if firing else "none"))
    for transition in record.get("alerts", {}).get("transitions", []):
        parts.append(f"{transition['alert']}->{transition['state']}")
    return " ".join(parts)


def _format_top(record: dict) -> str:
    """The ``top`` progress board for one snapshot document."""
    series = record.get("series", {})
    heartbeats = record.get("heartbeats", {})
    alerts = record.get("alerts", {})
    lines = [
        f"repro.obs top — source={record.get('source', '?')} "
        f"seq={record.get('seq', '?')} "
        f"uptime={record.get('uptime_seconds', 0.0):.1f}s"
        + (f" run={record['run_id']}" if record.get("run_id") else ""),
        "",
    ]

    def _section(title: str, rows: List[str]) -> None:
        if rows:
            lines.append(title)
            lines.extend(f"  {row}" for row in rows)
            lines.append("")

    fleet_rows = []
    for key in sorted(series):
        if key.startswith("fleet.") and "[" not in key:
            value = series[key]
            text = f"{value:g}" if isinstance(value, (int, float)) else value
            fleet_rows.append(f"{key:32s} {text}")
    _section("fleet", fleet_rows)

    progress_rows = []
    for source in sorted(heartbeats):
        entry = heartbeats[source]
        bits = []
        for key in ("stage", "status"):
            if key in entry:
                bits.append(str(entry[key]))
        done = entry.get("done", entry.get("tasks_done"))
        total = entry.get("total", entry.get("tasks_total"))
        if done is not None:
            bits.append(f"{done}/{total}" if total is not None
                        else str(done))
        bits.append(f"beats={entry.get('beats', 0)}")
        progress_rows.append(f"{source:40s} {' '.join(bits)}")
    _section("progress", progress_rows)

    alert_rows = []
    for name in alerts.get("firing", []):
        alert_rows.append(f"FIRING  {name}")
    for transition in alerts.get("transitions", []):
        alert_rows.append(
            f"{transition['state']:8s}{transition['alert']} "
            f"({transition['series']} {transition['op']} "
            f"{transition['threshold']:g}, value={transition['value']:g})"
        )
    if not alert_rows:
        alert_rows = ["(none firing)"]
    _section("alerts", alert_rows)
    return "\n".join(lines).rstrip("\n")


def _cmd_tail(args: argparse.Namespace) -> int:
    """``tail``: stream snapshot/event records from a live JSONL file."""
    try:
        records = tail_records(args.stream, follow=args.follow,
                               poll=args.interval,
                               max_seconds=args.max_seconds)
        if args.last is not None:
            # Buffer only the existing file, then re-follow the growth.
            existing = list(tail_records(args.stream))
            records = iter(existing[-args.last:]) if not args.follow \
                else _chain_last(existing, args)
        for record in records:
            if args.format == "json":
                print(_json_mod.dumps(record, sort_keys=True), flush=True)
            else:
                print(_format_tail_line(record), flush=True)
    except OSError as error:
        print(f"error: {args.stream}: {error}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _chain_last(existing: List[dict], args: argparse.Namespace):
    """The last N existing records, then live growth of the stream."""
    count = len(existing)
    yield from existing[-args.last:]
    for index, record in enumerate(
            tail_records(args.stream, follow=True, poll=args.interval,
                         max_seconds=args.max_seconds)):
        if index >= count:
            yield record


def _cmd_top(args: argparse.Namespace) -> int:
    """``top``: render the latest snapshot as a progress board."""
    try:
        if not args.follow:
            snapshots = read_snapshots(args.stream)
            if not snapshots:
                print(f"error: {args.stream}: no snapshot records",
                      file=sys.stderr)
                return EXIT_ERROR
            print(_format_top(snapshots[-1]))
            return 0
        shown = False
        for record in tail_records(args.stream, follow=True,
                                   poll=args.interval,
                                   max_seconds=args.max_seconds):
            if record.get("schema") != SNAPSHOT_SCHEMA:
                continue
            if shown:
                print()
            print(_format_top(record), flush=True)
            shown = True
        if not shown:
            print(f"error: {args.stream}: no snapshot records",
                  file=sys.stderr)
            return EXIT_ERROR
    except OSError as error:
        print(f"error: {args.stream}: {error}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the process exit code (see module docstring)."""
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "history":
        return _cmd_history(args)
    if args.command == "tail":
        return _cmd_tail(args)
    if args.command == "top":
        return _cmd_top(args)
    return EXIT_ERROR  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
