"""End-to-end benchmark of the characterize -> schedule -> execute loop.

Run from the repository root::

    python3 bench_e2e/run.py --workload paper_loop --seed 1 --seconds 30

Workloads (see ``bench_e2e/README.md`` for why each was chosen):

* ``paper_loop`` — one device-day of the paper on Poughkeepsie: SRB
  campaign, Serial/Par/XtalkSched on the Fig 5 SWAP set built from the
  measured report, XtalkSched on the Fig 8 QAOA regions, noisy execution,
  tomography and cross entropy;
* ``sched_heavy_hex`` — XtalkSched on 250-gate supremacy circuits on the
  65- and 127-qubit heavy-hex presets, no solve budget (run by hand; it
  is not in ``BENCHMARK.json`` because its run-to-run spread on the
  reference host is wider than the largest bound the file allows);
* ``fleet_opt3`` — FleetController over 6 drifting 8-qubit devices for 10
  simulated days (one full campaign each, then Opt-3 refreshes).

Each workload is a closed loop in this one process: the next iteration
starts when the previous one ends, for as long as it is expected to end
within ``--seconds`` (and at least the workload's minimum number of
iterations run).  Every campaign, backend, tomography and fleet call gets
``workers=2``.  While an iteration runs, a fixed reference kernel is
timed every 0.2 s (``host.py``); ``iter_ref_s`` scales each iteration by
the kernel's speed over it, which cancels most of the shared host's speed
swings.

``--trace 0`` times untraced iterations and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced iterations and
reports per-layer metrics from the traced ones (self time per layer, the
program's registry counts across each call) plus the tracing overhead.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 157, "failed": 0, "metrics": {...}}

Everything else the run measured (all end-to-end figures, per-iteration
times, failures, environment, and the spans of a traced run) is written
once at the end to ``.bench_e2e/<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_e2e"

#: Set-up is repeated in this many fresh processes after the timed loop;
#: ``setup_s`` is the median over them and this process.
SETUP_REPEATS = 2

#: Every end-to-end figure the benchmark prints: name -> (unit, better).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "iter_s": ("s", "lower"),
    "iter_ref_s": ("s", "lower"),
    "compile_ms_p50": ("ms", "lower"),
    "compile_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "device_minutes": ("min", "lower"),
    "pair_recall": ("ratio", "higher"),
    "pair_precision": ("ratio", "higher"),
    "swap_error_gain_vs_par": ("ratio", "higher"),
    "swap_error_gain_vs_serial": ("ratio", "higher"),
    "qaoa_ce_gain_vs_par": ("ratio", "higher"),
    "schedule_objective": ("objective", "lower"),
    "drift_lag_days": ("days", "lower"),
}

#: The end-to-end metrics in the JSON result: the ones every workload
#: reports and that are never 0 (the rest apply to some workloads only, or
#: are seed-determined quality figures that can be 0).  Iteration time is
#: gated as ``iter_ref_s``: raw wall time swings with the shared host's
#: speed by more than the largest bound allows (see README.md, Noise).
GATED_METRICS = ("setup_s", "iter_ref_s", "peak_rss_mb")

#: Per-layer metrics of a traced run: name -> (unit, better).  Layer
#: times are shares of the traced iteration and per-unit costs are rates,
#: so a layer a workload does not run reads 0 without being a time.
LAYER_METRICS = {
    "characterization.busy_frac": ("ratio", "lower"),
    "characterization.self_frac": ("ratio", "lower"),
    "characterization.calls": ("count", "lower"),
    "characterization.experiments": ("count", "lower"),
    "characterization.experiments_per_s": ("1/s", "higher"),
    "rb.experiments_per_s": ("1/s", "higher"),
    "rb.sequences": ("count", "lower"),
    "parallel.tasks": ("count", "lower"),
    "parallel.pooled_task_frac": ("ratio", "higher"),
    "parallel.queue_wait_frac": ("ratio", "lower"),
    "parallel.exec_frac": ("ratio", "lower"),
    "scheduling.busy_frac": ("ratio", "lower"),
    "scheduling.self_frac": ("ratio", "lower"),
    "scheduling.calls": ("count", "lower"),
    "scheduling.serialized_frac": ("ratio", "lower"),
    "smt.decisions": ("count", "lower"),
    "smt.nodes": ("count", "lower"),
    "smt.nodes_per_s": ("1/s", "higher"),
    "smt.exact_frac": ("ratio", "higher"),
    "smt.windows": ("count", "lower"),
    "transpiler.self_frac": ("ratio", "lower"),
    "transpiler.makespan_ratio_vs_par": ("ratio", "lower"),
    "backend.busy_frac": ("ratio", "lower"),
    "backend.self_frac": ("ratio", "lower"),
    "backend.runs": ("count", "lower"),
    "backend.trajectories": ("count", "lower"),
    "backend.trajectories_per_s": ("1/s", "higher"),
    "metrics.self_frac": ("ratio", "lower"),
    "fleet.busy_frac": ("ratio", "lower"),
    "fleet.self_frac": ("ratio", "lower"),
    "fleet.campaigns": ("count", "lower"),
    "fleet.fresh_frac": ("ratio", "higher"),
    "trace.iteration_s": ("s", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def pin_environment() -> None:
    """Pin the program being measured before numpy is imported."""
    for name in ("REPRO_WORKERS", "REPRO_SIM_ENGINE",
                 "REPRO_MIN_PARALLEL_SECONDS"):
        os.environ.pop(name, None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_loop", "sched_heavy_hex",
                                 "fleet_opt3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print its set-up time, "
                             "and exit (used for the repeated set-ups)")
    return parser.parse_args(argv)


def git_sha():
    """The checked-out commit, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def repeated_setups(args) -> list:
    """Set-up seconds of ``SETUP_REPEATS`` fresh processes, one at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def layer_metrics(traced, untraced_ref_s: float, spans_list,
                  workers: int) -> dict:
    """Per-layer metrics of the traced iterations (README.md defines them).

    Counts are per traced iteration; shares are of the traced iterations'
    total time.
    """
    from spans import LAYERS, attribute

    n = len(traced)
    att = attribute(spans_list, workers)
    total = att["trace.iteration_s"]
    roots = [s for s in spans_list if s.layer == "iteration"]
    reg = {k: sum(s.delta[k] for s in roots) for k in roots[0].delta}
    stats = [it["stats"] for it in traced if it["stats"] is not None]
    solutions = [sol for st in stats for sol in st.solutions]
    ratios = [r for st in stats for r in st.makespan_ratios]
    xtalk_s = sum(s.seconds for s in spans_list
                  if s.name == "XtalkScheduler.schedule")
    traced_ref_s = statistics.median(it["ref_seconds"] for it in traced)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_frac"] = att[f"{layer}.busy_s"] / total
        m[f"{layer}.self_frac"] = att[f"{layer}.self_s"] / total
        m[f"{layer}.calls"] = att[f"{layer}.calls"] / n
    m.update({
        "characterization.experiments": reg["campaign.experiments"] / n,
        "characterization.experiments_per_s": ratio(
            reg["campaign.experiments"], att["characterization.busy_s"]),
        "rb.experiments_per_s": ratio(reg["rb.experiment_seconds.count"],
                                      reg["rb.experiment_seconds.sum"]),
        "rb.sequences": reg["rb.sequences"] / n,
        "parallel.tasks": reg["parallel.tasks"] / n,
        "parallel.pooled_task_frac": ratio(
            reg["parallel.task.queue_seconds.count"], reg["parallel.tasks"]),
        "parallel.queue_wait_frac": ratio(
            reg["parallel.task.queue_seconds.sum"],
            reg["parallel.task.exec_seconds.sum"]),
        "parallel.exec_frac": reg["parallel.task.exec_seconds.sum"] / total,
        "scheduling.serialized_frac": ratio(
            reg["schedule.pairs_serialized"], reg["schedule.pairs_candidate"]),
        "smt.decisions": reg["schedule.pairs_candidate"] / n,
        "smt.nodes": reg["smt.nodes_explored"] / n,
        "smt.nodes_per_s": ratio(reg["smt.nodes_explored"], xtalk_s),
        "smt.exact_frac": ratio(sum(sol.exact for sol in solutions),
                                len(solutions)),
        "smt.windows": reg["smt.windows_solved"] / n,
        "transpiler.makespan_ratio_vs_par": (
            statistics.geometric_mean(ratios) if ratios else 0.0),
        "backend.runs": reg["backend.runs"] / n,
        "backend.trajectories": reg["backend.trajectories"] / n,
        "backend.trajectories_per_s": ratio(reg["backend.trajectories"],
                                            reg["backend.run_seconds.sum"]),
        "fleet.campaigns": att["fleet.campaigns"] / n,
        "fleet.fresh_frac": ratio(sum(st.epochs_fresh for st in stats),
                                  sum(st.epochs_published for st in stats)),
        "trace.iteration_s": total / n,
        "trace.unattributed_frac": att["trace.unattributed_s"] / total,
        "trace.overhead_frac": traced_ref_s / untraced_ref_s - 1.0,
    })
    return {name: m[name] for name in LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy
    import scipy
    from host import REFERENCE_UNIT_SECONDS, HostSampler
    from spans import LAYERS, Tracer, read_registry
    from workloads import WORKERS, WORKLOADS, OperationFailed, Ops, instrument

    tracer = Tracer()
    ops = Ops()
    workload = WORKLOADS[args.workload](args.seed, tracer, ops)
    setup_s = time.perf_counter() - SCRIPT_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # ---------------------------------------------------------------- timed
    min_iterations = max(workload.min_iterations, 2 if args.trace else 1)
    iterations = []
    before = read_registry()
    loop_start = time.perf_counter()
    rss = None
    index = 0
    while index < min_iterations or (
            time.perf_counter() - loop_start + statistics.median(
                it["seconds"] for it in iterations) <= args.seconds):
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            instrument(tracer)
            tracer.enabled = True
            tracer.iteration = index
        with HostSampler() as host:
            started = time.perf_counter()
            try:
                with tracer.span("iteration", f"iteration[{index}]"):
                    stats = workload.iteration(index)
            except OperationFailed:
                stats = None
            seconds = time.perf_counter() - started
        if traced:
            tracer.enabled = False
            tracer.restore()
        iterations.append({
            "index": index, "seconds": seconds, "traced": traced,
            "stats": stats, "unit_cpu_s": host.unit_cpu_seconds,
            "ref_seconds": ((seconds - host.own_seconds)
                            * REFERENCE_UNIT_SECONDS / host.unit_cpu_seconds),
        })
        index += 1
        # Caches grow with every iteration's fresh seeds, so memory is read
        # after a fixed number of iterations, not after a timed number.
        if index == min_iterations:
            rss = peak_rss_mb()
    after = read_registry()
    loop_delta = {k: after[k] - before[k] for k in after}

    # ------------------------------------------------------- untimed checks
    try:
        workload.checks()
    except OperationFailed:
        pass
    setup_samples = [setup_s] + repeated_setups(args)

    # -------------------------------------------------------------- metrics
    untraced = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    untraced_ref_s = statistics.median(it["ref_seconds"] for it in untraced)
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "iter_s": statistics.median(it["seconds"] for it in untraced),
        "iter_ref_s": untraced_ref_s,
        "peak_rss_mb": rss,
        "failed_frac": ops.failed / max(ops.attempted, 1),
    }
    compile_s = [c for it in untraced if it["stats"]
                 for c in it["stats"].compile_s]
    if compile_s:
        e2e["compile_ms_p50"] = 1e3 * percentile(compile_s, 50)
        e2e["compile_ms_p90"] = 1e3 * percentile(compile_s, 90)
    # Quality figures come from iteration 0 alone, which every run makes,
    # so they depend only on the seed.
    first = iterations[0]["stats"]
    if first is not None:
        e2e.update(first.quality)

    correct = ops.failed == 0
    layers = {}
    if traced:
        layers = layer_metrics(traced, untraced_ref_s, tracer.spans,
                               WORKERS)
        # Layer self times plus the remainder must make up the iteration.
        gap = 1.0 - layers["trace.unattributed_frac"] - sum(
            layers[f"{layer}.self_frac"] for layer in LAYERS)
        if abs(gap) > 1e-9:
            print(f"bench_e2e: layer self times miss the traced iteration "
                  f"time by a share of {gap:.3e}", file=sys.stderr)
            correct = False

    # --------------------------------------------------------------- report
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "workers": WORKERS, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
        "parallel.pooled_task_frac": ratio(
            loop_delta["parallel.task.queue_seconds.count"],
            loop_delta["parallel.tasks"]),
    }
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print("iterations (wall, reference-host): " + ", ".join(
        f"{it['index']}{'T' if it['traced'] else ''}={it['seconds']:.3f}s/"
        f"{it['ref_seconds']:.3f}s" for it in iterations))
    print("reference kernel CPU per sample: " + ", ".join(
        f"{1e3 * it['unit_cpu_s']:.3f}ms" for it in iterations))
    print(f"operations: {ops.attempted} attempted, {ops.failed} failed")
    for reason in ops.failures:
        print(f"  failed: {reason}")
    print(f"{'end-to-end metric':28s} {'unit':10s} {'better':7s} value")
    for name, (unit, better) in E2E_METRICS.items():
        value = e2e.get(name)
        shown = ("n/a (not run by this workload)" if value is None
                 else f"{value:.6g}")
        if name.startswith("compile_ms") and value is not None:
            shown += f" (n={len(compile_s)})"
        if name == "failed_frac":
            shown += f" ({ops.failed} of {ops.attempted} attempted)"
        print(f"{name:28s} {unit:10s} {better:7s} {shown}")
    for name, value in layers.items():
        unit, better = LAYER_METRICS[name]
        print(f"{name:36s} {unit:6s} {better:7s} {value:.6g}")

    document = {
        "env": env, "correct": correct, "attempted": ops.attempted,
        "failed": ops.failed, "failures": ops.failures,
        "setup_samples": setup_samples,
        "iterations": [{k: it[k] for k in ("index", "seconds", "ref_seconds",
                                           "unit_cpu_s", "traced")}
                       for it in iterations],
        "end_to_end": e2e, "per_layer": layers,
        "spans": [s.to_dict() for s in tracer.spans],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(document, indent=1))

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _better) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": E2E_METRICS[name][0]}
                   for name in GATED_METRICS}
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
