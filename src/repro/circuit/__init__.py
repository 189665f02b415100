"""Quantum circuit intermediate representation.

This package provides the program IR used throughout the reproduction:
gate/instruction definitions (:mod:`repro.circuit.gates`), the
:class:`~repro.circuit.circuit.QuantumCircuit` container, and the
dependency DAG (:mod:`repro.circuit.dag`) that the schedulers and the
crosstalk-adaptive optimizer operate on.
"""

from repro.circuit.gates import (
    GateSpec,
    Instruction,
    GATE_SPECS,
    gate_spec,
    is_two_qubit_gate,
)
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDag

__all__ = [
    "GateSpec",
    "Instruction",
    "GATE_SPECS",
    "gate_spec",
    "is_two_qubit_gate",
    "QuantumCircuit",
    "CircuitDag",
]
