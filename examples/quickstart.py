"""Quickstart: the full crosstalk-mitigation pipeline on one SWAP circuit.

Reproduces the paper's Figure 6 case study end to end:

1. characterize the device's crosstalk with simultaneous randomized
   benchmarking (Section 5);
2. compile the 0 -> 13 SWAP-path circuit with the three schedulers of
   Table 1 (SerialSched / ParSched / XtalkSched);
3. execute on the noisy device model and score each schedule by state
   tomography of the Bell pair the circuit prepares.

Run:  python examples/quickstart.py          (~1 minute)

``main(fast=True)`` shrinks the RB sizing so the example smoke-tests in
seconds (the numbers get noisier; the story is the same).
"""

from repro import (
    CharacterizationCampaign,
    CharacterizationPolicy,
    NoisyBackend,
    RBConfig,
    ibmq_poughkeepsie,
)
from repro.experiments.common import ExperimentConfig, swap_error_rate
from repro.workloads.swap import swap_benchmark


def main(fast: bool = False):
    device = ibmq_poughkeepsie()
    print(f"device: {device}\n")

    # ------------------------------------------------------------------
    # 1. Characterize crosstalk (1-hop pairs, bin-packed experiments).
    # ------------------------------------------------------------------
    print("characterizing crosstalk (SRB on 1-hop pairs, bin-packed)...")
    rb_config = RBConfig.fast() if fast else RBConfig(num_sequences=16)
    campaign = CharacterizationCampaign(device, rb_config=rb_config, seed=3)
    outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED)
    print(f"  {outcome.num_experiments} experiments "
          f"(would take ~{outcome.machine_minutes:.0f} min of machine time "
          f"at the paper's protocol sizing)")
    print(outcome.report.summary())
    print()

    # ------------------------------------------------------------------
    # 2+3. Schedule and execute the paper's case-study circuit.
    # ------------------------------------------------------------------
    bench = swap_benchmark(device.coupling, 0, 13, path=(0, 5, 10, 11, 12, 13))
    print(f"benchmark: SWAP path {bench.plan.path}, Bell pair on "
          f"{bench.meeting_pair}, {bench.circuit.two_qubit_gate_count()} CNOTs\n")

    backend = NoisyBackend(device)
    config = ExperimentConfig(seed=7)
    print(f"{'scheduler':14s} {'error rate':>10s} {'duration (ns)':>14s}")
    for scheduler in ("SerialSched", "ParSched", "XtalkSched"):
        error, duration = swap_error_rate(
            backend, bench, scheduler, outcome.report, config
        )
        print(f"{scheduler:14s} {error:10.3f} {duration:14.0f}")

    print("\nXtalkSched serializes the interfering SWAP(5,10) / SWAP(11,12)"
          "\npair and orders SWAP 11,12 first to protect low-coherence"
          "\nqubit 10 — lower error than both baselines at a modest duration"
          "\nincrease over ParSched.")


if __name__ == "__main__":
    main()
