"""Command-line entry point for the observability layer.

Four subcommands::

    python -m repro.obs report  <files...>  [--format text|json]
    python -m repro.obs diff    <baseline> <candidate> [--gate]
    python -m repro.obs diff    <candidate> --history H.jsonl --last 5 --gate
    python -m repro.obs profile <trace> [--format text|collapsed|speedscope]
    python -m repro.obs history <store.jsonl> [--last N] [--compact N]

``report`` renders any obs artefact (trace, metrics, manifest, diff,
profile, scorecard, history record or store); ``--format json`` emits the
canonical document(s) instead of text.  ``diff`` compares two runs — or a
candidate against a history window — with the noise-aware comparator of
:mod:`repro.obs.diff`; with ``--gate`` it exits nonzero when anything
regressed (the CI hook).  ``profile`` turns a v2 trace into self/total
attribution, collapsed stacks, or a speedscope document.  ``history``
lists or compacts a run store.

Exit codes are stable: **0** success (and, for ``diff --gate``, no
regression); **1** bad input — unreadable file, unknown schema, empty
history; **2** the gate tripped (``diff --gate`` found a regression).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .diff import DiffThresholds, diff_records, format_diff
from .history import RunHistory, format_history_report, load_run_record
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
    return EXIT_ERROR  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
