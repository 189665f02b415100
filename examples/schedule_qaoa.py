"""Tuning the crosstalk weight factor ω for a QAOA application.

Sweeps XtalkSched's ω on a crosstalk-prone 4-qubit region of IBMQ
Poughkeepsie (the paper's Figure 8 study): ω = 0 is ParSched, ω = 1 is
pure crosstalk avoidance, and the sweet spot in between minimizes the
cross entropy of the measured output distribution against the noise-free
ideal.

Run:  python examples/schedule_qaoa.py      (~30 seconds)

``main(fast=True)`` sweeps three ω values for a seconds-long smoke run.
"""

from repro import NoisyBackend, XtalkScheduler, ibmq_poughkeepsie
from repro.experiments.common import (
    ExperimentConfig,
    distribution_as_dict,
    ground_truth_report,
    run_distribution,
)
from repro.metrics.distributions import cross_entropy, ideal_cross_entropy
from repro.sim.statevector import ideal_distribution
from repro.workloads.qaoa import qaoa_on_region

REGION = (5, 10, 11, 12)
OMEGAS = (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)


def main(fast: bool = False):
    device = ibmq_poughkeepsie()
    omegas = (0.0, 0.35, 1.0) if fast else OMEGAS
    # For a real device you would run a characterization campaign here
    # (see examples/characterize_device.py); the ground-truth report keeps
    # this example fast.
    report = ground_truth_report(device)
    backend = NoisyBackend(device)
    config = ExperimentConfig(seed=13)

    circuit = qaoa_on_region(device.coupling, REGION, seed=11)
    ideal = ideal_distribution(circuit)
    floor = ideal_cross_entropy(ideal)
    print(f"QAOA on region {REGION}: {len(circuit)} instructions, "
          f"{circuit.two_qubit_gate_count()} CNOTs")
    print(f"noise-free cross entropy (lower bound): {floor:.3f}\n")

    print(f"{'omega':>6s} {'cross entropy':>14s} {'CE loss':>8s} "
          f"{'serialized pairs':>17s}")
    best = (None, float("inf"))
    for omega in omegas:
        scheduler = XtalkScheduler(device.calibration(), report, omega=omega)
        result = scheduler.schedule(circuit)
        probs = run_distribution(backend, result.circuit, config)
        ce = cross_entropy(distribution_as_dict(probs), ideal)
        print(f"{omega:6.2f} {ce:14.3f} {ce - floor:8.3f} "
              f"{len(result.serialized_pairs):17d}")
        if ce < best[1]:
            best = (omega, ce)

    print(f"\nbest omega: {best[0]} (cross entropy {best[1]:.3f}) — "
          f"an interior value beats both the ParSched (0.0) and the "
          f"fully-crosstalk-averse (1.0) endpoints.")


if __name__ == "__main__":
    main()
