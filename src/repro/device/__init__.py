"""Device models standing in for the three 20-qubit IBMQ systems.

The paper runs on real hardware; this package provides the faithful
software substitute (see DESIGN.md §2):

* :mod:`repro.device.topology` — coupling maps and hop distances;
* :mod:`repro.device.calibration` — per-gate error rates, durations,
  T1/T2 and readout errors, as published in IBM's daily calibration data;
* :mod:`repro.device.crosstalk` — the **hidden ground truth**: which 1-hop
  gate pairs interfere, their conditional error rates, and daily drift.
  Compilers never read this directly; they see only what the
  characterization module measures;
* :mod:`repro.device.presets` — Poughkeepsie, Johannesburg, Boeblingen;
* :mod:`repro.device.backend` — the noisy executor that turns a hardware
  schedule into a :class:`~repro.sim.density.NoisyOp` stream, assigning
  each CNOT its conditional error from the *actual* overlaps in the
  schedule.
"""

from repro.device.topology import CouplingMap
from repro.device.calibration import Calibration, GateDurations
from repro.device.crosstalk import CrosstalkModel, CrosstalkPair
from repro.device.device import Device
from repro.device.presets import (
    ibmq_poughkeepsie,
    ibmq_johannesburg,
    ibmq_boeblingen,
    all_devices,
)
from repro.device.backend import NoisyBackend

__all__ = [
    "CouplingMap",
    "Calibration",
    "GateDurations",
    "CrosstalkModel",
    "CrosstalkPair",
    "Device",
    "ibmq_poughkeepsie",
    "ibmq_johannesburg",
    "ibmq_boeblingen",
    "all_devices",
    "NoisyBackend",
]
