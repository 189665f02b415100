"""Ablation studies for the design choices DESIGN.md calls out.

Four ablations, each isolating one mechanism:

1. **Scheduling policy** — adds the blanket hardware-disable policy of
   Rigetti/Bristlecone (serialize every nearby pair, no characterization)
   between ParSched and XtalkSched, quantifying the paper's Section 1
   argument that software selectivity beats disabling in hardware.
2. **Barrier realization** — XtalkSched with naive one-barrier-per-
   serialized-pair vs the iterative minimal realization.
3. **Solver** — exact branch-and-bound vs greedy dive on the same
   circuits: objective gap and compile time.
4. **RB estimator** — exact Walsh-characteristic survival vs Monte-Carlo
   stabilizer sampling: accuracy against the planted rates and wall time.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.core.scheduling.baselines import disable_sched
from repro.core.scheduling.xtalk import XtalkScheduler
from repro.device.backend import NoisyBackend
from repro.experiments.common import (
    ExperimentConfig,
    ground_truth_report,
    prepare_circuit,
    swap_error_rate,
    tomography_error,
)
from repro.rb.executor import RBConfig, RBExecutor
from repro.workloads.swap import (
    crosstalk_affected_endpoints,
    crosstalk_route,
    swap_benchmark,
)
from repro.workloads.hidden_shift import hidden_shift_on_region


def test_ablation_scheduling_policies(benchmark, poughkeepsie, record_table, record_trace):
    """XtalkSched vs the blanket hardware-disable policy."""
    report = ground_truth_report(poughkeepsie)
    backend = NoisyBackend(poughkeepsie)
    config = ExperimentConfig(seed=21)
    endpoints = crosstalk_affected_endpoints(
        poughkeepsie.coupling, report.high_pairs()
    )[:5]

    def run():
        rows = []
        for (s, d) in endpoints:
            route = crosstalk_route(poughkeepsie.coupling, s, d,
                                    report.high_pairs())
            bench = swap_benchmark(poughkeepsie.coupling, s, d, path=route)
            entry = {"pair": (s, d)}
            for scheduler in ("ParSched", "XtalkSched"):
                err, dur = swap_error_rate(backend, bench, scheduler, report,
                                           config)
                entry[scheduler] = (err, dur)
            disabled = disable_sched(bench.circuit, poughkeepsie.coupling)
            entry["DisableSched"] = (
                tomography_error(backend, disabled, bench.meeting_pair,
                                 config),
                backend.schedule_of(disabled).makespan(),
            )
            rows.append(entry)
        return rows

    with record_trace("ablation_scheduling_policies"):
        rows = run_once(benchmark, run)
    lines = [
        "Ablation 1: scheduling policies (error / duration)",
        f"{'pair':>10s} {'ParSched':>18s} {'DisableSched':>18s} "
        f"{'XtalkSched':>18s}",
    ]
    for r in rows:
        lines.append(
            f"{str(r['pair']):>10s} "
            f"{r['ParSched'][0]:8.3f}/{r['ParSched'][1]:8.0f} "
            f"{r['DisableSched'][0]:8.3f}/{r['DisableSched'][1]:8.0f} "
            f"{r['XtalkSched'][0]:8.3f}/{r['XtalkSched'][1]:8.0f}"
        )
    mean = lambda k: float(np.mean([r[k][0] for r in rows]))
    mean_dur = lambda k: float(np.mean([r[k][1] for r in rows]))
    lines.append(
        f"\nmean error: Par {mean('ParSched'):.3f}, Disable "
        f"{mean('DisableSched'):.3f}, Xtalk {mean('XtalkSched'):.3f}"
    )
    lines.append(
        f"mean duration: Par {mean_dur('ParSched'):.0f}, Disable "
        f"{mean_dur('DisableSched'):.0f}, Xtalk {mean_dur('XtalkSched'):.0f}"
    )
    record_table("ablation_scheduling_policies", "\n".join(lines))

    # Blanket disabling also avoids crosstalk, so it beats ParSched on
    # these circuits — but XtalkSched's selectivity and coherence-aware
    # ordering give it a clearly lower error rate still.
    assert mean("DisableSched") < mean("ParSched")
    assert mean("XtalkSched") < mean("DisableSched") - 0.02


def test_ablation_barrier_realization(benchmark, poughkeepsie, record_table, record_trace):
    """Iterative minimal barriers vs naive one-per-pair barriers."""
    report = ground_truth_report(poughkeepsie)
    backend = NoisyBackend(poughkeepsie)
    cal = poughkeepsie.calibration()
    circuits = {
        "hs_redundant": hidden_shift_on_region(
            poughkeepsie.coupling, (5, 10, 11, 12), redundant=True
        ),
        "swap_0_13": swap_benchmark(
            poughkeepsie.coupling, 0, 13, path=(0, 5, 10, 11, 12, 13)
        ).circuit,
    }

    def run():
        rows = []
        for name, circuit in circuits.items():
            entry = {"circuit": name}
            for minimal in (False, True):
                scheduler = XtalkScheduler(cal, report, omega=0.5,
                                           minimal_barriers=minimal)
                result = scheduler.schedule(circuit)
                hw = backend.schedule_of(result.circuit)
                barriers = sum(1 for i in result.circuit if i.is_barrier)
                entry["minimal" if minimal else "naive"] = (
                    barriers, hw.makespan()
                )
            rows.append(entry)
        return rows

    with record_trace("ablation_barrier_realization"):
        rows = run_once(benchmark, run)
    lines = [
        "Ablation 2: barrier realization (barriers / duration)",
        f"{'circuit':>14s} {'naive':>16s} {'minimal':>16s}",
    ]
    for r in rows:
        lines.append(
            f"{r['circuit']:>14s} "
            f"{r['naive'][0]:6d}/{r['naive'][1]:8.0f} "
            f"{r['minimal'][0]:6d}/{r['minimal'][1]:8.0f}"
        )
    record_table("ablation_barrier_realization", "\n".join(lines))

    for r in rows:
        assert r["minimal"][0] <= r["naive"][0]
        assert r["minimal"][1] <= r["naive"][1] + 1e-6


def test_ablation_solver_exact_vs_greedy(benchmark, poughkeepsie,
                                         record_table, record_trace):
    """Greedy dive objective gap vs the exact branch-and-bound."""
    report = ground_truth_report(poughkeepsie)
    cal = poughkeepsie.calibration()
    endpoints = crosstalk_affected_endpoints(
        poughkeepsie.coupling, report.high_pairs()
    )[:5]

    def run():
        rows = []
        for (s, d) in endpoints:
            route = crosstalk_route(poughkeepsie.coupling, s, d,
                                    report.high_pairs())
            circuit = swap_benchmark(poughkeepsie.coupling, s, d,
                                     path=route).circuit
            t0 = time.perf_counter()
            exact = XtalkScheduler(cal, report, omega=0.5).schedule(circuit)
            t_exact = time.perf_counter() - t0
            t0 = time.perf_counter()
            greedy = XtalkScheduler(cal, report, omega=0.5,
                                    exact_decision_limit=0,
                                    strategy="monolithic").schedule(circuit)
            t_greedy = time.perf_counter() - t0
            rows.append({
                "pair": (s, d),
                "decisions": len(exact.candidate_pairs),
                "exact_obj": exact.solution.objective,
                "greedy_obj": greedy.solution.objective,
                "exact_s": t_exact,
                "greedy_s": t_greedy,
            })
        return rows

    with record_trace("ablation_solver_exact_vs_greedy"):
        rows = run_once(benchmark, run)
    lines = [
        "Ablation 3: exact B&B vs greedy dive",
        f"{'pair':>10s} {'decisions':>9s} {'exact obj':>11s} "
        f"{'greedy obj':>11s} {'exact s':>8s} {'greedy s':>9s}",
    ]
    for r in rows:
        lines.append(
            f"{str(r['pair']):>10s} {r['decisions']:9d} "
            f"{r['exact_obj']:11.3f} {r['greedy_obj']:11.3f} "
            f"{r['exact_s']:8.2f} {r['greedy_s']:9.2f}"
        )
    record_table("ablation_solver", "\n".join(lines))

    for r in rows:
        # the exact solution is never worse; greedy is close behind
        assert r["exact_obj"] <= r["greedy_obj"] + 1e-9
        gap = r["greedy_obj"] - r["exact_obj"]
        assert gap <= abs(r["exact_obj"]) * 0.15 + 0.5


def test_ablation_pulse_vs_barrier_isa(benchmark, poughkeepsie, record_table, record_trace):
    """Circuit-level (barrier) vs pulse-level (verbatim times) realization.

    The paper's footnote 2 notes OpenPulse offers finer control than
    barriers; this quantifies what the coarser ISA costs on the SWAP
    benchmarks: identical crosstalk avoidance, but the barrier realization
    re-times the circuit and can stretch it.
    """
    report = ground_truth_report(poughkeepsie)
    backend = NoisyBackend(poughkeepsie)
    cal = poughkeepsie.calibration()
    config = ExperimentConfig(seed=29)
    endpoints = crosstalk_affected_endpoints(
        poughkeepsie.coupling, report.high_pairs()
    )[:4]

    def run():
        rows = []
        for (s, d) in endpoints:
            route = crosstalk_route(poughkeepsie.coupling, s, d,
                                    report.high_pairs())
            bench = swap_benchmark(poughkeepsie.coupling, s, d, path=route)
            entry = {"pair": (s, d)}
            # barrier ISA (default pipeline)
            err_b, dur_b = swap_error_rate(backend, bench, "XtalkSched",
                                           report, config)
            entry["barrier"] = (err_b, dur_b)
            # pulse ISA: execute the intended schedule verbatim; score with
            # Z-basis Bell error (both halves see the same metric)
            pulse = XtalkScheduler(cal, report, omega=0.5, isa="pulse")
            result = pulse.schedule(bench.circuit)
            entry["pulse_duration"] = result.intended_schedule.makespan()
            rows.append(entry)
        return rows

    with record_trace("ablation_pulse_vs_barrier_isa"):
        rows = run_once(benchmark, run)
    lines = [
        "Ablation 5: barrier vs pulse ISA (XtalkSched)",
        f"{'pair':>10s} {'barrier err/dur':>18s} {'pulse dur':>10s}",
    ]
    for r in rows:
        lines.append(
            f"{str(r['pair']):>10s} "
            f"{r['barrier'][0]:8.3f}/{r['barrier'][1]:8.0f} "
            f"{r['pulse_duration']:10.0f}"
        )
    record_table("ablation_pulse_isa", "\n".join(lines))

    for r in rows:
        # verbatim pulse timing never stretches beyond the barrier
        # realization's hardware re-schedule
        assert r["pulse_duration"] <= r["barrier"][1] + 1e-6


def test_ablation_route_around_vs_schedule_around(benchmark, poughkeepsie,
                                                  record_table, record_trace):
    """Routing-level mitigation vs scheduling-level mitigation.

    For endpoint pairs where an equally short crosstalk-free route exists,
    compare (a) ParSched on the crosstalk-crossing route, (b) XtalkSched
    on the same route (schedule around), and (c) ParSched on the
    min-crosstalk route (route around).  Both mitigations beat the naive
    baseline; they are complementary compiler levers.
    """
    from repro.transpiler.routing import min_crosstalk_path
    from repro.workloads.swap import plan_has_crosstalk
    from repro.transpiler.routing import meet_in_middle_plan

    report = ground_truth_report(poughkeepsie)
    backend = NoisyBackend(poughkeepsie)
    config = ExperimentConfig(seed=27)
    highs = report.high_pairs()

    # endpoint pairs with both a crossing route and a clean alternative
    candidates = []
    for (s, d) in crosstalk_affected_endpoints(poughkeepsie.coupling, highs):
        dirty = crosstalk_route(poughkeepsie.coupling, s, d, highs)
        clean = min_crosstalk_path(poughkeepsie.coupling, s, d, highs)
        clean_plan = meet_in_middle_plan(poughkeepsie.coupling, s, d,
                                         path=clean)
        if dirty is not None and not plan_has_crosstalk(clean_plan, highs):
            candidates.append((s, d, dirty, clean))
        if len(candidates) == 4:
            break

    def run():
        rows = []
        for (s, d, dirty, clean) in candidates:
            dirty_bench = swap_benchmark(poughkeepsie.coupling, s, d,
                                         path=dirty)
            clean_bench = swap_benchmark(poughkeepsie.coupling, s, d,
                                         path=clean)
            naive, _ = swap_error_rate(backend, dirty_bench, "ParSched",
                                       report, config)
            scheduled, _ = swap_error_rate(backend, dirty_bench, "XtalkSched",
                                           report, config)
            rerouted, _ = swap_error_rate(backend, clean_bench, "ParSched",
                                          report, config)
            rows.append({"pair": (s, d), "naive": naive,
                         "schedule_around": scheduled,
                         "route_around": rerouted})
        return rows

    with record_trace("ablation_route_around_vs_schedule_around"):
        rows = run_once(benchmark, run)
    lines = [
        "Ablation 6: route-around vs schedule-around",
        f"{'pair':>10s} {'naive Par':>10s} {'XtalkSched':>11s} "
        f"{'rerouted Par':>13s}",
    ]
    for r in rows:
        lines.append(
            f"{str(r['pair']):>10s} {r['naive']:10.3f} "
            f"{r['schedule_around']:11.3f} {r['route_around']:13.3f}"
        )
    record_table("ablation_route_vs_schedule", "\n".join(lines))

    mean = lambda k: float(np.mean([r[k] for r in rows]))
    assert mean("schedule_around") < mean("naive")
    assert mean("route_around") < mean("naive")


def test_ablation_rb_estimators(benchmark, poughkeepsie, record_table, record_trace):
    """Exact Walsh-characteristic estimator vs Monte-Carlo sampling."""
    truth_ind = poughkeepsie.calibration().cnot_error_of(10, 15)
    truth_cond = poughkeepsie.crosstalk.conditional_error(
        (10, 15), (11, 12), poughkeepsie.calibration()
    )

    def run():
        out = {}
        for mode, cfg in [
            ("exact", RBConfig(num_sequences=20, estimate="exact")),
            ("exact-scalar", RBConfig(num_sequences=20,
                                      estimate="exact-scalar")),
            ("sampled", RBConfig(num_sequences=20, samples_per_sequence=24,
                                 estimate="sampled")),
        ]:
            executor = RBExecutor(poughkeepsie, config=cfg, seed=31)
            t0 = time.perf_counter()
            ind = executor.run_independent((10, 15)).error_rate((10, 15))
            cond = executor.run_pair((10, 15), (11, 12)).error_rate((10, 15))
            out[mode] = {
                "independent": ind,
                "conditional": cond,
                "seconds": time.perf_counter() - t0,
            }
        return out

    with record_trace("ablation_rb_estimators"):
        result = run_once(benchmark, run)
    lines = [
        "Ablation 4: RB survival estimators",
        f"{'estimator':>10s} {'E(10,15)':>10s} {'E(10,15|11,12)':>15s} "
        f"{'seconds':>8s}",
        f"{'truth':>10s} {truth_ind:10.4f} {truth_cond:15.4f} {'-':>8s}",
    ]
    for mode, r in result.items():
        lines.append(
            f"{mode:>10s} {r['independent']:10.4f} {r['conditional']:15.4f} "
            f"{r['seconds']:8.2f}"
        )
    record_table("ablation_rb_estimators", "\n".join(lines))

    for mode, r in result.items():
        assert r["independent"] == __import__("pytest").approx(truth_ind,
                                                               abs=0.012)
    assert result["exact"]["seconds"] < result["sampled"]["seconds"]
