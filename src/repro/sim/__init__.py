"""Quantum state simulation substrate.

This package replaces the role of real IBMQ hardware (and Qiskit Aer) in the
original paper's experiments:

* :mod:`repro.sim.unitaries` — matrices for every gate in the IR;
* :mod:`repro.sim.statevector` — a dense statevector engine with
  measurement and sampling;
* :mod:`repro.sim.channels` — noise channels (depolarizing, amplitude
  damping, dephasing, readout) in Kraus form;
* :mod:`repro.sim.density` — the lowered noisy event stream
  (:class:`NoisyOp`) and its exact density-matrix execution, the engine
  behind :class:`~repro.device.backend.NoisyBackend`;
* :mod:`repro.sim.stabilizer` — a CHP-style stabilizer simulator used by the
  randomized-benchmarking substrate, where circuits are Clifford-only and
  20-qubit dense simulation would be wasteful.
"""

from repro.sim.unitaries import gate_unitary
from repro.sim.statevector import Statevector, simulate_statevector, ideal_distribution
from repro.sim.channels import (
    depolarizing_kraus,
    amplitude_damping_kraus,
    phase_damping_kraus,
    two_qubit_depolarizing_paulis,
    ReadoutModel,
)
from repro.sim.stabilizer import StabilizerSimulator
from repro.sim.density import (
    DensityMatrix,
    NoisyOp,
    exact_output_distribution,
    exact_output_distributions,
)

__all__ = [
    "gate_unitary",
    "Statevector",
    "simulate_statevector",
    "ideal_distribution",
    "depolarizing_kraus",
    "amplitude_damping_kraus",
    "phase_damping_kraus",
    "two_qubit_depolarizing_paulis",
    "ReadoutModel",
    "NoisyOp",
    "StabilizerSimulator",
    "DensityMatrix",
    "exact_output_distribution",
    "exact_output_distributions",
]
