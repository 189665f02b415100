"""The typed context threaded through a pipeline run.

A :class:`PassContext` carries everything Figure 2's toolflow hands from
stage to stage: the target device and day, the crosstalk characterization,
the evolving circuit IR, the layout, and the artifacts later stages (or the
caller) want back — the solver's :class:`ScheduledCircuit`, the hardware
schedule, the makespan.  Passes read what they need and write what they
produce; anything without a dedicated field goes in ``artifacts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.circuit.circuit import QuantumCircuit
from repro.core.characterization.report import CrosstalkReport
from repro.core.scheduling.xtalk import ScheduledCircuit
from repro.device.device import Device
from repro.obs.trace import Trace


@dataclass
class PassContext:
    """Mutable state shared by the passes of one pipeline run.

    Attributes:
        device: the target device; passes only consult its compiler-visible
            surface (coupling map, daily calibration).
        day: calibration day every pass schedules against.
        report: crosstalk characterization (required by the xtalk policy).
        omega: XtalkSched's crosstalk weight factor.
        initial_layout: requested logical->physical placement (None =
            identity); :class:`~repro.pipeline.passes.LayoutPass` resolves it.
        circuit: the current IR — each pass replaces it with its output.
        source_circuit: the untouched input circuit (for names/metadata).
        layout: final logical->physical map once routing has run.
        scheduled: XtalkSched artifacts when the xtalk policy scheduled.
        duration: hardware-schedule makespan (ns) once computed.
        artifacts: free-form side outputs keyed by pass name.
        trace: the instrumentation record, attached by the runner.
    """

    device: Device
    day: int = 0
    report: Optional[CrosstalkReport] = None
    omega: float = 0.5
    initial_layout: Optional[Sequence[int]] = None
    circuit: Optional[QuantumCircuit] = None
    source_circuit: Optional[QuantumCircuit] = None
    layout: Optional[List[int]] = None
    scheduled: Optional[ScheduledCircuit] = None
    duration: Optional[float] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Trace] = None

    def __post_init__(self) -> None:
        if self.source_circuit is None and self.circuit is not None:
            self.source_circuit = self.circuit

    @property
    def calibration(self):
        """The day's calibration snapshot (what IBM publishes daily)."""
        return self.device.calibration(self.day)

    def require_circuit(self) -> QuantumCircuit:
        if self.circuit is None:
            raise ValueError("pipeline context has no circuit to transform")
        return self.circuit
