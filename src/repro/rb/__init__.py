"""Randomized benchmarking substrate (the role of Qiskit Ignis).

Crosstalk characterization rests on measuring CNOT error rates with
two-qubit randomized benchmarking (RB) and *simultaneous* RB (SRB) on gate
pairs (Section 4.2).  This package implements the full protocol from
scratch:

* :mod:`repro.rb.clifford` — exact Clifford groups (24 single-qubit and
  11520 two-qubit elements) enumerated by Dijkstra over generators, giving
  every element a CNOT-minimal gate decomposition (average 1.5 CNOTs per
  two-qubit Clifford, the figure the paper divides by) and exact inverses;
* :mod:`repro.rb.sequences` — RB sequence construction: ``m`` random
  Cliffords followed by the group inverse, so ideal executions return to
  |00>;
* :mod:`repro.rb.executor` — noisy execution of (possibly parallel) RB
  sequences on the stabilizer simulator, pulling conditional error rates
  from the device ground truth through the same overlap analysis the main
  backend uses;
* :mod:`repro.rb.fitting` — exact bounded least-squares fit of survival
  curves to ``A * f**m + B`` (one call per experiment) and conversion to
  error-per-Clifford / error-per-CNOT.
"""

from repro.rb.clifford import CliffordTableau, CliffordGroup, clifford_group
from repro.rb.sequences import RBSequence, generate_rb_sequence
from repro.rb.fitting import (
    RBFit,
    error_per_clifford_to_cnot,
    fit_rb_decay,
    fit_rb_decays,
)
from repro.rb.executor import RBExecutor, SRBResult

__all__ = [
    "CliffordTableau",
    "CliffordGroup",
    "clifford_group",
    "RBSequence",
    "generate_rb_sequence",
    "RBFit",
    "fit_rb_decay",
    "fit_rb_decays",
    "error_per_clifford_to_cnot",
    "RBExecutor",
    "SRBResult",
]
