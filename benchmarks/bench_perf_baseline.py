"""Machine-readable perf baseline: serial vs parallel on the hot loops.

Writes ``BENCH_perf.json`` (repo root by default) as a
``repro.obs.manifest/v1`` run manifest whose ``results.workloads`` carry
one entry per workload::

    {"schema": "repro.obs.manifest/v1", "run_id": ..., "git": {...},
     "config": {"fast": ..., "cpu_count": ...}, "results": {"workloads": {
        "campaign_one_hop_packed": {"serial_seconds": ..., "parallel_seconds":
            ..., "workers": 4, "speedup": ...}, ...}}}

Workloads:

* campaign — scalar exact estimator with per-experiment sequence
  regeneration (``estimate="exact-scalar"``, ``share_sequences=False``)
  @ 1 worker, vs the vectorized estimator with sweep-shared sequences
  @ N workers, so its speedup reports what the perf work delivers;
* exact_backend / exact_tomography — the exact density-matrix executor
  behind :class:`~repro.device.backend.NoisyBackend` @ 1 worker vs N
  workers: repeated runs of one scheduled SWAP circuit, and repeated
  9-setting tomography of another.  Both legs ship the same code, so the
  speedup reads ~1 (neither the backend nor tomography fans out: both
  legs run one in-process batch job per unit, and ``workers`` is
  accepted and ignored) and the history gate watches their seconds.

Determinism spot-checks always compare the *shipped* configuration at 1
worker against N workers (bitwise).  The campaign's serial leg is a
different configuration that agrees only statistically, so its check
reruns the shipped one at 1 worker.  On
single-core containers the pool contributes nothing (there is nothing to
fan out over), and vectorization + amortization carry the speedup;
``cpu_count`` is recorded so readers can tell which regime produced the
numbers.

Run directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_perf_baseline.py --fast
    PYTHONPATH=src python benchmarks/bench_perf_baseline.py --check 1.2
    PYTHONPATH=src python benchmarks/bench_perf_baseline.py --gate 5

``--check X`` exits nonzero if any workload's parallel leg is
slower than ``X`` times its serial leg — the CI perf-smoke gate,
implemented as a :mod:`repro.obs.diff` against a synthetic budget
baseline.  ``--gate N`` diffs this run against the last *N* history
records of the same name (``benchmarks/results/history.jsonl`` by
default) with the noise-aware comparator and exits nonzero on any
regression.  Every run appends its summary record to the history store
unless ``--no-history`` is given; gating against a record produced on a
dirty working tree prints a warning (regenerate the baseline from a
clean tree instead of committing drifting numbers).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.characterization.campaign import (  # noqa: E402
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.device import ibmq_poughkeepsie  # noqa: E402
from repro.device.backend import NoisyBackend  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentConfig,
    ground_truth_report,
    prepare_circuit,
    tomography_error,
)
from repro.obs import (  # noqa: E402
    DiffThresholds,
    MetricsRegistry,
    RunHistory,
    RunManifest,
    RunRecord,
    diff_records,
    format_diff,
    push_registry,
    write_manifest,
)
from repro.rb.clifford import clifford_group  # noqa: E402
from repro.rb.executor import RBConfig  # noqa: E402
from repro.workloads.swap import swap_benchmark  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"
DEFAULT_HISTORY = REPO_ROOT / "benchmarks" / "results" / "history.jsonl"


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _interleaved(serial, parallel, units: int):
    """``serial()`` and ``parallel()``, ``units`` times each, interleaved:
    ``(serial values, serial median s, parallel values, parallel median s)``.

    Units of a few hundredths or tenths of a second swing by more than the
    ``--check`` budget on a busy host: interleaving (which leg goes first
    alternates) cancels the host's drift, the median unit drops one-off
    stalls, and the collector stays off so neither leg pays for the other's
    garbage.
    """
    legs = (serial, parallel)
    values = ([], [])
    times = ([], [])
    gc.collect()
    gc.disable()
    try:
        for index in range(units):
            for leg in (0, 1) if index % 2 == 0 else (1, 0):
                value, seconds = _timed(legs[leg])
                values[leg].append(value)
                times[leg].append(seconds)
    finally:
        gc.enable()
    return (values[0], statistics.median(times[0]),
            values[1], statistics.median(times[1]))


def bench_campaign(workers: int, fast: bool) -> dict:
    """ONE_HOP_PACKED campaign: scalar serial vs vectorized parallel."""
    device = ibmq_poughkeepsie()
    rb = RBConfig.fast() if fast else RBConfig()
    clifford_group(2)  # build once, outside both timed legs

    serial_cfg = dataclasses.replace(rb, estimate="exact-scalar",
                                     share_sequences=False)
    serial_campaign = CharacterizationCampaign(device, rb_config=serial_cfg,
                                               seed=3)
    _, serial_seconds = _timed(lambda: serial_campaign.run(
        CharacterizationPolicy.ONE_HOP_PACKED, workers=1))

    campaign = CharacterizationCampaign(device, rb_config=rb, seed=3)
    pooled, parallel_seconds = _timed(lambda: campaign.run(
        CharacterizationPolicy.ONE_HOP_PACKED, workers=workers))

    # Determinism spot-check: the parallel report must equal the serial
    # run of the *same* (vectorized) configuration.
    single = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, workers=1)
    deterministic = (
        single.report.independent == pooled.report.independent
        and single.report.conditional == pooled.report.conditional
    )
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "speedup": serial_seconds / parallel_seconds,
        "experiments": pooled.plan.num_experiments,
        "deterministic_across_worker_counts": deterministic,
        "notes": "serial = exact-scalar estimator, unshared sequences @ 1 "
                 "worker (pre-change); parallel = vectorized estimator, "
                 "shared sequences @ N workers (shipped)",
    }


def bench_exact_backend(workers: int, fast: bool) -> dict:
    """Exact execution of a scheduled SWAP circuit, one run per unit."""
    device = ibmq_poughkeepsie()
    report = ground_truth_report(device)
    bench = swap_benchmark(device.coupling, 0, 8)
    prepared = prepare_circuit("ParSched", bench.circuit, device, report)
    backends = {count: NoisyBackend(device, day=0, seed=11, workers=count)
                for count in (1, workers)}
    units = 40 if fast else 200

    single, serial_unit, pooled, parallel_unit = _interleaved(
        lambda: backends[1].run(prepared, shots=1024),
        lambda: backends[workers].run(prepared, shots=1024), units)
    serial_seconds, parallel_seconds = units * serial_unit, units * parallel_unit
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "speedup": serial_seconds / parallel_seconds,
        "runs": units,
        "deterministic_across_worker_counts": all(
            np.array_equal(a.probabilities, b.probabilities)
            and a.counts == b.counts for a, b in zip(single, pooled)
        ),
        "notes": "exact density-matrix backend, serial = 1 worker, "
                 "parallel = N workers (same code); units interleaved, "
                 "leg = units x median unit",
    }


def bench_exact_tomography(workers: int, fast: bool) -> dict:
    """Two-qubit state tomography (9 basis settings), one per unit."""
    device = ibmq_poughkeepsie()
    report = ground_truth_report(device)
    bench = swap_benchmark(device.coupling, 0, 8)
    prepared = prepare_circuit("XtalkSched", bench.circuit, device, report)
    backend = NoisyBackend(device, day=0)
    config = ExperimentConfig(shots=1024)
    # A unit takes ~10 ms: fewer units than this let the median swing by
    # more than the --check budget between two legs running the same code.
    units = 40 if fast else 200

    single, serial_unit, pooled, parallel_unit = _interleaved(
        lambda: tomography_error(backend, prepared, bench.meeting_pair,
                                 config, workers=1),
        lambda: tomography_error(backend, prepared, bench.meeting_pair,
                                 config, workers=workers), units)
    serial_seconds, parallel_seconds = units * serial_unit, units * parallel_unit
    return {
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "speedup": serial_seconds / parallel_seconds,
        "tomographies": units,
        "deterministic_across_worker_counts": single == pooled,
        "notes": "exact density-matrix backend, 9 settings as one "
                 "in-process batch job; serial = 1 worker, parallel = N "
                 "workers (same code, workers ignored); units interleaved, "
                 "leg = units x median unit",
    }


WORKLOADS = {
    "campaign_one_hop_packed": bench_campaign,
    "exact_backend": bench_exact_backend,
    "exact_tomography": bench_exact_tomography,
}


def check_budget_diff(workloads: dict, check: float):
    """The ``--check`` gate as a :mod:`repro.obs.diff`.

    Builds a synthetic *budget* baseline — every workload's parallel leg
    allowed ``check`` times its serial leg — and diffs the measured
    parallel legs against it with zero tolerance, so any leg over budget
    classifies as regressed.
    """
    budget = RunRecord(run_id="budget", name="bench_perf_budget", series={
        f"workloads.{name}.parallel_seconds":
            check * entry["serial_seconds"]
        for name, entry in workloads.items()
    })
    measured = RunRecord(run_id="measured", name="bench_perf_measured",
                         series={
                             f"workloads.{name}.parallel_seconds":
                                 entry["parallel_seconds"]
                             for name, entry in workloads.items()
                         })
    zero = DiffThresholds(rel=0.0, mad_scale=0.0, abs_floor=1e-9,
                          noise_floor_seconds=0.0)
    return diff_records(budget, measured, zero)


def _warn_if_dirty(record: RunRecord, label: str) -> None:
    """Satellite of the dirty-manifest policy: gating against numbers
    produced on an uncommitted tree is unreliable — say so."""
    if record.git_dirty:
        print(f"[bench_perf] WARNING: {label} (run {record.run_id}) was "
              "produced on a dirty working tree; regenerate from a clean "
              "tree before trusting the gate", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small protocol sizing (CI smoke mode)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the parallel legs (default 4)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output path (default {DEFAULT_OUT})")
    parser.add_argument("--check", type=float, default=None, metavar="X",
                        help="exit nonzero if any workload's parallel leg "
                             "is slower than X times its serial leg")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="NAME=X",
                        help="exit nonzero if workload NAME's speedup is "
                             "below X (repeatable; e.g. "
                             "--floor campaign_one_hop_packed=3)")
    parser.add_argument("--gate", type=int, default=None, metavar="N",
                        help="diff this run against the last N history "
                             "records and exit nonzero on regressions")
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                        help=f"history store (default {DEFAULT_HISTORY})")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this run to the history store")
    args = parser.parse_args(argv)

    registry = MetricsRegistry()
    workloads = {}
    with push_registry(registry):
        for name, fn in WORKLOADS.items():
            print(f"[bench_perf] running {name} ...", flush=True)
            entry = fn(args.workers, args.fast)
            workloads[name] = entry
            print(f"[bench_perf]   serial {entry['serial_seconds']:.2f}s  "
                  f"parallel {entry['parallel_seconds']:.2f}s  "
                  f"speedup {entry['speedup']:.2f}x", flush=True)

    manifest = RunManifest.capture(
        name="bench_perf_baseline",
        config={"fast": args.fast, "cpu_count": os.cpu_count()},
        workers=args.workers,
        results={"workloads": workloads},
    )
    write_manifest(manifest, str(args.out))
    print(f"[bench_perf] wrote {args.out} (run {manifest.run_id})")

    record = RunRecord.from_artifacts(manifest=manifest.to_dict(),
                                      metrics=registry.snapshot())
    history = RunHistory(str(args.history))
    baseline_window = history.last(args.gate, name=record.name) \
        if args.gate else []
    if not args.no_history:
        history.append(record)
        print(f"[bench_perf] appended run {record.run_id} to {history.path} "
              f"({len(history)} records)")

    failures = []
    for name, entry in workloads.items():
        if not entry.get("deterministic_across_worker_counts", True):
            failures.append(f"{name}: results differ across worker counts")

    for spec in args.floor:
        name, _, floor_text = spec.partition("=")
        if not floor_text or name not in workloads:
            failures.append(f"--floor {spec!r}: unknown workload or missing "
                            f"value (workloads: {', '.join(WORKLOADS)})")
            continue
        floor = float(floor_text)
        speedup = workloads[name]["speedup"]
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below floor {floor:.2f}x"
            )

    if args.check is not None:
        _warn_if_dirty(record, "this run")
        diff = check_budget_diff(workloads, args.check)
        for regression in diff.regressions:
            failures.append(
                f"{regression.name}: {regression.candidate:.2f}s exceeds "
                f"{args.check:.2f}x serial budget "
                f"({regression.baseline:.2f}s)"
            )

    if args.gate:
        _warn_if_dirty(record, "this run")
        if not baseline_window:
            print(f"[bench_perf] gate: no prior {record.name!r} records in "
                  f"{history.path}; nothing to compare", file=sys.stderr)
        else:
            for prior in baseline_window:
                _warn_if_dirty(prior, "baseline record")
            diff = diff_records(baseline_window, record)
            print(format_diff(diff))
            for regression in diff.regressions:
                failures.append(
                    f"history gate: {regression.name} regressed "
                    f"({regression.baseline!r} -> {regression.candidate!r})"
                )

    for failure in failures:
        print(f"[bench_perf] FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
