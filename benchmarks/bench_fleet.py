"""Fleet benchmark: chaos-soak throughput and drift-tracking quality.

Runs the full :func:`repro.fleet.soak.run_soak` triple (fault-free
reference, chaos, kill-and-resume) and reports the fleet service's two
headline numbers:

* **throughput** — chaos-leg device-days per wall-clock second (how fast
  the online Opt-3 service re-characterizes a fleet under faults);
* **quality** — the chaos run's fleet scorecard: pooled recall/precision
  against the planted truth, worst-device ``drift_lag_days``, stable-day
  fraction, and the quarantine count.

Writes a ``repro.obs.manifest/v1`` document (check verdicts, injected
fault counts, scorecard) and appends a summary record to the shared
history store (``benchmarks/results/history.jsonl``) so fleet quality
diffs and gates like every other series.  Any failed soak check exits
nonzero regardless of gating — this benchmark *is* the acceptance
harness at benchmark size.

Run directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_fleet.py --fast
    PYTHONPATH=src python benchmarks/bench_fleet.py --gate 5
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet.soak import SoakConfig, run_soak  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    RunHistory,
    RunManifest,
    RunRecord,
    diff_records,
    format_diff,
    push_registry,
)
from repro.rb.executor import RBConfig  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "results" / "BENCH_fleet.json"
DEFAULT_HISTORY = REPO_ROOT / "benchmarks" / "results" / "history.jsonl"


def run_benchmark(args) -> tuple:
    config = SoakConfig(
        devices=3 if args.fast else args.devices,
        days=4 if args.fast else args.days,
        qubits=5 if args.fast else args.qubits,
        seed=args.seed,
        workers=args.workers,
        fault_rate=args.fault_rate,
        rb_config=RBConfig(lengths=(2, 4, 8), num_sequences=2),
    )
    registry = MetricsRegistry()
    with push_registry(registry):
        result = run_soak(config)
    return config, result, registry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small fleet sizing (CI smoke mode)")
    parser.add_argument("--devices", type=int, default=6)
    parser.add_argument("--days", type=int, default=5)
    parser.add_argument("--qubits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="per-campaign pool size (None: REPRO_WORKERS)")
    parser.add_argument("--fault-rate", type=float, default=0.22)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    parser.add_argument("--gate", type=int, default=None, metavar="N",
                        help="diff this run against the last N history "
                             "records and exit nonzero on regressions")
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                        help=f"history store (default {DEFAULT_HISTORY})")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this run to the history store")
    args = parser.parse_args(argv)

    print("[bench_fleet] running the soak triple "
          "(reference / chaos / kill-and-resume) ...", flush=True)
    config, result, registry = run_benchmark(args)
    print(result.format())

    metrics = result.scorecard.metrics
    series = {
        "fleet.device_days_per_sec": result.device_days_per_sec,
        "fleet.soak_seconds": result.seconds,
        "fleet.recall": metrics["recall"],
        "fleet.precision": metrics["precision"],
        "fleet.drift_lag_days": metrics["drift_lag_days"],
        "fleet.stable_days_fraction": metrics["stable_days_fraction"],
        "fleet.quarantined": metrics["quarantined"],
        "fleet.checks_failed": sum(
            1 for _n, passed, _d in result.checks if not passed
        ),
    }
    manifest = RunManifest.capture(
        name="bench_fleet",
        config={
            "fast": args.fast, "devices": config.devices,
            "days": config.days, "qubits": config.qubits,
            "fault_rate": config.fault_rate,
            "cpu_count": os.cpu_count(),
        },
        workers=args.workers,
        results={
            "checks": {name: passed for name, passed, _d in result.checks},
            "injected": result.injected,
            "quarantined": list(result.quarantined),
            "scorecard": result.scorecard.to_dict(),
            **series,
        },
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    from repro.obs import write_manifest

    write_manifest(manifest, str(args.out))
    print(f"[bench_fleet] wrote {args.out} (run {manifest.run_id})")

    record = RunRecord.from_artifacts(
        manifest=manifest.to_dict(), metrics=registry.snapshot(),
        extra_series=series,
        documents={"scorecard": result.scorecard.to_dict()},
    )
    history = RunHistory(str(args.history))
    baseline_window = history.last(args.gate, name=record.name) \
        if args.gate else []
    if not args.no_history:
        history.append(record)
        print(f"[bench_fleet] appended run {record.run_id} to "
              f"{history.path} ({len(history)} records)")

    failures = [
        f"soak check failed: {name} ({detail})"
        for name, passed, detail in result.checks if not passed
    ]

    if args.gate:
        if record.git_dirty:
            print(f"[bench_fleet] WARNING: this run ({record.run_id}) was "
                  "produced on a dirty working tree; regenerate the "
                  "baseline from a clean tree", file=sys.stderr)
        if not baseline_window:
            print(f"[bench_fleet] gate: no prior {record.name!r} records "
                  f"in {history.path}; nothing to compare", file=sys.stderr)
        else:
            diff = diff_records(baseline_window, record)
            print(format_diff(diff))
            for regression in diff.regressions:
                failures.append(
                    f"history gate: {regression.name} regressed "
                    f"({regression.baseline!r} -> {regression.candidate!r})"
                )

    for failure in failures:
        print(f"[bench_fleet] FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
