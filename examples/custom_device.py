"""Building a custom device model and running the pipeline on it.

Shows every layer of the library working on hardware *you* define: a
12-qubit line with one planted high-crosstalk pair and one low-coherence
qubit.  The characterization campaign discovers the pair from SRB
measurements alone, and XtalkSched uses the result to beat ParSched on a
communication circuit crossing the noisy region.

Run:  python examples/custom_device.py      (~30 seconds)

``main(fast=True)`` trims the RB sizing for a seconds-long smoke run
(still enough statistics to find the planted pair).
"""

from repro import (
    CharacterizationCampaign,
    CharacterizationPolicy,
    NoisyBackend,
    RBConfig,
)
from repro.device.calibration import synthesize_calibration
from repro.device.crosstalk import CrosstalkModel, CrosstalkPair
from repro.device.device import Device
from repro.device.topology import line_coupling_map
from repro.experiments.common import ExperimentConfig, swap_error_rate
from repro.workloads.swap import swap_benchmark


def build_device() -> Device:
    coupling = line_coupling_map(12)
    calibration = synthesize_calibration(
        coupling,
        seed=21,
        slow_qubits={5: 7_000.0},       # one weak qubit in the middle
        heavy_tail_edges=1,
    )
    crosstalk = CrosstalkModel(
        coupling,
        # Gates (4,5) and (6,7) are 1 hop apart and interfere strongly.
        [CrosstalkPair((4, 5), (6, 7), factor_a=8.0, factor_b=6.0)],
        seed=99,
    )
    return Device("my_line_12q", coupling, calibration, crosstalk, seed=4)


def main(fast: bool = False):
    device = build_device()
    print(f"device: {device}")
    print(f"planted crosstalk pair: (4,5) | (6,7)\n")

    # Discover the pair from measurements alone.
    rb_config = (RBConfig(lengths=(2, 8, 20), num_sequences=12)
                 if fast else RBConfig(num_sequences=16))
    campaign = CharacterizationCampaign(device, rb_config=rb_config, seed=5)
    outcome = campaign.run(CharacterizationPolicy.ONE_HOP_PACKED)
    print(outcome.report.summary())

    detected = outcome.report.high_pairs()
    assert frozenset({(4, 5), (6, 7)}) in detected, "characterization missed it!"
    print("\ncharacterization found the planted pair from SRB data alone.\n")

    # A SWAP circuit whose two chains straddle the noisy region.
    bench = swap_benchmark(device.coupling, 2, 9)
    backend = NoisyBackend(device)
    config = ExperimentConfig(seed=6)
    print(f"SWAP benchmark 2 -> 9 (path {bench.plan.path}):")
    print(f"{'scheduler':14s} {'error rate':>10s} {'duration (ns)':>14s}")
    for scheduler in ("SerialSched", "ParSched", "XtalkSched"):
        error, duration = swap_error_rate(
            backend, bench, scheduler, outcome.report, config
        )
        print(f"{scheduler:14s} {error:10.3f} {duration:14.0f}")


if __name__ == "__main__":
    main()
