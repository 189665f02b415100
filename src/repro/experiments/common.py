"""Shared experiment pipeline.

The pipeline mirrors Figure 2 of the paper: characterize the device (or,
for experiments isolating scheduling effects, read the ground truth as a
perfect characterization), schedule the workload with one of the three
policies, execute it on the noisy backend, mitigate readout, and score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.core.characterization.campaign import (
    CampaignOutcome,
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.core.characterization.report import CrosstalkReport
from repro.device.backend import NoisyBackend
from repro.device.device import Device
from repro.metrics.readout import mitigate_distribution
from repro.metrics.tomography import (
    _basis_rotation,
    bell_state_vector,
    density_from_expectations,
    expectations_from_distributions,
    state_fidelity,
    tomography_settings,
)
from repro.obs.trace import span
from repro.pipeline.cache import ResultCache, campaign_cache_key
from repro.pipeline.context import PassContext
from repro.pipeline.passes import scheduling_pass
from repro.pipeline.runner import Pipeline
from repro.rb.executor import RBConfig
from repro.workloads.swap import SwapBenchmark

SCHEDULERS = ("SerialSched", "ParSched", "XtalkSched")


@dataclass
class ExperimentConfig:
    """Execution settings shared by the figure drivers.

    The backend executes the exact noisy channel; ``shots`` sizes the
    sampled counts (the paper used 9216 for tomography and 8192 for
    distributions).
    """

    shots: int = 4096
    omega: float = 0.5
    mitigate_readout: bool = True
    #: Sample finite shots (paper-faithful) instead of using the exact
    #: output distribution.  Benches default to exact distributions so
    #: scheduler differences are not buried in shot noise.
    use_sampled_counts: bool = False
    seed: int = 7
    #: Accepted and ignored: every execution, tomography included, runs in
    #: the calling process.
    workers: Optional[int] = None


# ----------------------------------------------------------------------
# characterization inputs
# ----------------------------------------------------------------------
def ground_truth_report(device: Device, day: int = 0) -> CrosstalkReport:
    """A perfect characterization: the ground truth, read as if measured.

    Used by scheduling experiments to isolate scheduler quality from RB
    measurement noise (the paper's scheduler likewise consumes the best
    characterization available).  Only 1-hop conditional rates are
    recorded, mirroring what a real campaign would measure.
    """
    cal = device.calibration(day)
    report = CrosstalkReport(day=day)
    for edge in device.coupling.edges:
        report.record_independent(edge, cal.cnot_error_of(*edge))
    for pair in device.coupling.one_hop_gate_pairs():
        a, b = sorted(pair)
        report.record_conditional(a, b, device.crosstalk.conditional_error(a, b, cal, day))
        report.record_conditional(b, a, device.crosstalk.conditional_error(b, a, cal, day))
    return report


#: Campaign outcomes are expensive (minutes of SRB simulation), so the
#: drivers share a content-keyed LRU.  The key covers the device
#: fingerprint, day, seed, *and the full RB config* — the historical
#: ``(device.name, day, seed)`` dict silently served one RB config's
#: outcome for another.
campaign_cache = ResultCache(max_entries=32)


def characterized_report(device: Device, day: int = 0,
                         rb_config: Optional[RBConfig] = None,
                         seed: int = 3, use_cache: bool = True,
                         workers: Optional[int] = None) -> CampaignOutcome:
    """Run (and cache) a 1-hop bin-packed SRB campaign on the device.

    ``workers`` only affects wall time, never the outcome, so it is
    deliberately not part of the cache key.
    """
    config = rb_config if rb_config is not None else RBConfig()

    def run_campaign() -> CampaignOutcome:
        campaign = CharacterizationCampaign(device, rb_config=config, seed=seed,
                                            workers=workers)
        return campaign.run(CharacterizationPolicy.ONE_HOP_PACKED, day=day)

    if not use_cache:
        return run_campaign()
    key = campaign_cache_key(device, day=day, seed=seed, rb_config=config,
                             policy=CharacterizationPolicy.ONE_HOP_PACKED)
    return campaign_cache.get_or_compute(key, run_campaign)


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------
def prepare_circuit(scheduler: str, circuit: QuantumCircuit, device: Device,
                    report: CrosstalkReport, omega: float = 0.5,
                    day: int = 0) -> QuantumCircuit:
    """Apply one of the Table 1 scheduling policies.

    Runs a one-pass :class:`~repro.pipeline.runner.Pipeline` so every
    figure driver gets per-pass instrumentation for free (its
    ``schedule[<Table 1 name>]`` span nests into any enclosing span).
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; pick from {SCHEDULERS}"
        )
    context = PassContext(device=device, day=day, report=report,
                          omega=omega, circuit=circuit)
    Pipeline([scheduling_pass(scheduler)],
             name=f"schedule[{scheduler}]").run(context)
    return context.circuit


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_distributions(backend: NoisyBackend,
                      circuits: Sequence[QuantumCircuit],
                      config: ExperimentConfig) -> List[np.ndarray]:
    """Execute ``circuits`` as one backend job and return each one's
    (optionally mitigated) clbit distribution, in input order."""
    results = backend.run_batch(circuits, shots=config.shots,
                                readout_error=True, seed=config.seed)
    readout = (backend.device.readout_model(backend.day)
               if config.mitigate_readout else None)
    confusion: Dict[Tuple[int, ...], np.ndarray] = {}
    dists = []
    for result in results:
        if config.use_sampled_counts:
            total = sum(result.counts.values())
            probs = np.zeros(len(result.probabilities))
            for bits, c in result.counts.items():
                probs[int(bits, 2)] = c / total
        else:
            probs = result.probabilities
        if readout is not None:
            qubits = result.measured_qubits
            if qubits not in confusion:
                confusion[qubits] = readout.confusion_matrix(qubits)
            probs = mitigate_distribution(probs, confusion[qubits])
        dists.append(probs)
    return dists


def run_distribution(backend: NoisyBackend, circuit: QuantumCircuit,
                     config: ExperimentConfig) -> np.ndarray:
    """Execute and return the (optionally mitigated) clbit distribution."""
    return run_distributions(backend, [circuit], config)[0]


def distribution_as_dict(probs: np.ndarray) -> Dict[str, float]:
    n = int(round(np.log2(len(probs))))
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p > 0}


# ----------------------------------------------------------------------
# SWAP-circuit scoring
# ----------------------------------------------------------------------
def _insert_rotations_before_measures(circuit: QuantumCircuit,
                                      rotations: Sequence) -> QuantumCircuit:
    """Insert instructions immediately before the first measurement.

    Scheduled circuits keep their measurements last (simultaneous readout),
    so basis rotations inserted there follow every gate on the measured
    qubits.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    inserted = False
    for instr in circuit:
        if instr.is_measure and not inserted:
            for rot in rotations:
                out.append(rot)
            inserted = True
        out.append(instr)
    if not inserted:
        raise ValueError("circuit has no measurements")
    return out


def tomography_error(backend: NoisyBackend, prepared: QuantumCircuit,
                     qubit_pair: Tuple[int, int], config: ExperimentConfig,
                     target: Optional[np.ndarray] = None,
                     workers: Optional[int] = None) -> float:
    """Tomography error of an already-scheduled circuit.

    Builds the 9 tomography variants by inserting basis rotations ahead of
    the measurements (the two-qubit structure — and hence any scheduling
    decisions — are identical across settings), executes them as one
    backend batch, which evolves their shared event prefix once, and
    reconstructs the two-qubit state.  ``workers`` is accepted and
    ignored: the batch runs in the calling process.
    """
    settings = tomography_settings()
    qa, qb = qubit_pair
    with span("tomography"):
        variants = []
        for basis_a, basis_b in settings:
            rot = QuantumCircuit(backend.device.num_qubits)
            _basis_rotation(rot, qa, basis_a)
            _basis_rotation(rot, qb, basis_b)
            variants.append(
                _insert_rotations_before_measures(prepared, rot.instructions))
        dists = dict(zip(settings, run_distributions(backend, variants,
                                                     config)))

    rho = density_from_expectations(expectations_from_distributions(dists))
    target = target if target is not None else bell_state_vector()
    return 1.0 - state_fidelity(rho, target)


def swap_error_rate(backend: NoisyBackend, bench: SwapBenchmark, scheduler: str,
                    report: CrosstalkReport, config: ExperimentConfig,
                    omega: Optional[float] = None) -> Tuple[float, float]:
    """Tomography error rate and program duration for one SWAP benchmark."""
    omega = config.omega if omega is None else omega
    prepared = prepare_circuit(
        scheduler, bench.circuit, backend.device, report, omega=omega,
        day=backend.day,
    )
    duration = backend.schedule_of(prepared).makespan()
    error = tomography_error(backend, prepared, bench.meeting_pair, config)
    return error, duration
