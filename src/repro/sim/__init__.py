"""Quantum state simulation substrate.

This package replaces the role of real IBMQ hardware (and Qiskit Aer) in the
original paper's experiments:

* :mod:`repro.sim.unitaries` — matrices for every gate in the IR;
* :mod:`repro.sim.statevector` — a dense statevector engine with
  measurement and sampling;
* :mod:`repro.sim.channels` — noise channels (depolarizing, amplitude
  damping, dephasing, readout) in Kraus/trajectory form;
* :mod:`repro.sim.trajectory` — batched Monte-Carlo trajectory execution
  of a noisy instruction stream (:class:`BatchedTrajectorySimulator`);
* :mod:`repro.sim.density` — the channel-exact density-matrix reference
  the trajectory engine is tested against;
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
from repro.sim.trajectory import (
    ENGINE_CODES,
    BatchedTrajectorySimulator,
    NoisyOp,
    trajectory_generators,
    trajectory_seed,
)
from repro.sim.stabilizer import StabilizerSimulator
from repro.sim.density import DensityMatrix, exact_output_distribution

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
    "BatchedTrajectorySimulator",
    "ENGINE_CODES",
    "NoisyOp",
    "trajectory_generators",
    "trajectory_seed",
    "StabilizerSimulator",
    "DensityMatrix",
    "exact_output_distribution",
]
