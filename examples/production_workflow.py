"""A production-shaped workflow: characterize once, refresh daily, compile
with auto-tuned ω, and monitor drift.

Puts the library's higher-level pieces together the way a deployment
would:

1. day 0 — full 1-hop bin-packed campaign streaming results to a
   checkpoint; a simulated mid-campaign outage aborts the run, and the
   rerun resumes from the checkpoint, re-executing only the missing
   experiments; persist the report to JSON;
2. day 1 — cheap high-pairs-only refresh merged into the saved report;
   drift monitoring decides whether the cheap policy is still safe;
3. compile an application with `compile_circuit` using ω chosen by the
   compile-time success predictor (no hardware execution needed);
4. execute and compare against the ParSched baseline, printing the
   per-pass timing/counter trace of every campaign and compile.

The whole run executes inside a :class:`repro.obs.Session`, so one trace
tree, metrics snapshot, event log, and run manifest land next to the
persisted report — the telemetry a deployment would archive per run
(inspect them with ``python -m repro.obs report <file>``).

Run:  python examples/production_workflow.py      (~1 minute)

``main(fast=True)`` shrinks the RB sizing for a seconds-long smoke run.
"""

import tempfile
from pathlib import Path

from repro import (
    CharacterizationCampaign,
    CharacterizationPolicy,
    CrosstalkReport,
    NoisyBackend,
    RBConfig,
    compile_circuit,
    ibmq_poughkeepsie,
)
from repro.core.characterization.drift import diff_reports, format_diff
from repro.core.scheduling.predictor import tune_omega
from repro.circuit.circuit import QuantumCircuit
from repro.experiments.common import ExperimentConfig, run_distribution
from repro.metrics.distributions import success_probability
from repro.obs import Session
from repro.resilience import FatalTaskError, FaultInjector, FaultPlan
from repro.workloads.hidden_shift import expected_output, hidden_shift_on_region


def main(fast: bool = False):
    device = ibmq_poughkeepsie()
    rb_config = RBConfig.fast() if fast else RBConfig(num_sequences=16)
    campaign = CharacterizationCampaign(device, rb_config=rb_config, seed=9)
    work_dir = Path(tempfile.mkdtemp())
    session = Session(
        "production_workflow",
        config={"policy": "one_hop_packed", "fast": fast},
        seeds={"campaign": 9, "execution": 17},
    )
    with session:
        _workflow(device, campaign, work_dir, fast, session)
    paths = session.write(str(work_dir))
    print(f"\nrun telemetry archived (run {session.run_id}):")
    for kind, path in sorted(paths.items()):
        print(f"  {kind:8s} {path}")


def _workflow(device, campaign, work_dir, fast, session):
    # ------------------------------------------------------------------
    # Day 0: full campaign with checkpoint/resume, persisted.
    #
    # Completed SRB experiments stream to a JSON-lines checkpoint as the
    # campaign runs. We simulate a mid-campaign outage (an injected
    # non-retryable fault) and then resume: the rerun recognizes the
    # checkpointed experiments by content and re-executes only the
    # missing ones — the final report is identical to an uninterrupted
    # run.
    # ------------------------------------------------------------------
    print("day 0: full 1-hop campaign (with simulated outage)...")
    checkpoint = str(work_dir / "day0.ckpt.jsonl")
    outage = FaultInjector(FaultPlan.single("fatal", rate=0.1, seed=23))
    try:
        campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, day=0,
                     checkpoint=checkpoint, faults=outage)
    except FatalTaskError:
        print(f"  outage after {outage.count} injected fault(s); "
              "partial results checkpointed")
    print("  resuming from checkpoint...")
    day0 = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, day=0,
                        checkpoint=checkpoint)
    print(f"  resumed: {day0.checkpoint_hits} of "
          f"{day0.plan.num_experiments} experiments served from the "
          "checkpoint")
    store = work_dir / "crosstalk_report.json"
    store.write_text(day0.report.to_json())
    print(f"  {len(day0.report.high_pairs())} high pairs found; report "
          f"saved to {store}")
    print("\n" + day0.trace.format())

    # ------------------------------------------------------------------
    # Day 1: cheap refresh + drift check.
    # ------------------------------------------------------------------
    print("\nday 1: high-pairs-only refresh...")
    prior = CrosstalkReport.from_json(store.read_text())
    day1 = campaign.run(CharacterizationPolicy.HIGH_ONLY, day=1, prior=prior)
    store.write_text(day1.report.to_json())
    print(format_diff(diff_reports(prior, day1.report)))

    # ------------------------------------------------------------------
    # Compile with auto-tuned omega.
    # ------------------------------------------------------------------
    report = day1.report
    circuit = hidden_shift_on_region(
        device.coupling, (5, 10, 11, 12), shift="1010", redundant=True
    )
    choice = tune_omega(circuit, device.calibration(1), report,
                        omegas=(0.0, 0.1, 0.35, 0.75, 1.0))
    print(f"\nauto-tuned omega = {choice.omega} "
          f"(predicted success {choice.prediction.total:.3f})")
    for omega, predicted in choice.sweep:
        print(f"  omega={omega:4.2f}: predicted success {predicted:.3f}")

    # ------------------------------------------------------------------
    # Execute tuned XtalkSched vs ParSched.
    # ------------------------------------------------------------------
    backend = NoisyBackend(device, day=1)
    config = ExperimentConfig(seed=17)
    expected = expected_output("1010")
    results = {}
    for scheduler, omega in (("par", 0.0), ("xtalk", choice.omega)):
        compiled = compile_circuit(circuit, device, report,
                                   scheduler=scheduler, omega=omega, day=1)
        probs = run_distribution(backend, compiled.circuit, config)
        from repro.experiments.common import distribution_as_dict

        success = success_probability(distribution_as_dict(probs), expected)
        results[scheduler] = (1 - success, compiled.duration)
        print(f"\n{scheduler}: error {1 - success:.3f}, "
              f"duration {compiled.duration:.0f} ns")
        print(compiled.trace.format())

    tolerance = 0.1 if fast else 0.02  # smaller RB sizing, noisier report
    assert results["xtalk"][0] <= results["par"][0] + tolerance
    print("\ntuned XtalkSched matches or beats ParSched, as predicted "
          "at compile time.")
    session.results["xtalk_error"] = results["xtalk"][0]
    session.results["par_error"] = results["par"][0]


if __name__ == "__main__":
    main()
