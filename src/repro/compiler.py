"""One-call compilation: a thin compat wrapper over :mod:`repro.pipeline`.

Historically this module chained the Figure 2 stages by hand; the stages now
live in :mod:`repro.pipeline.passes` and are run by the instrumented
:class:`~repro.pipeline.runner.Pipeline`.  :func:`compile_circuit` keeps its
exact signature and output — instruction-for-instruction the same scheduled
circuit and makespan as the historical implementation — while additionally
exposing the per-pass trace on :attr:`CompilationResult.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.core.characterization.report import CrosstalkReport
from repro.core.scheduling.xtalk import ScheduledCircuit
from repro.device.device import Device
from repro.obs.trace import Trace
from repro.pipeline.context import PassContext
from repro.pipeline.runner import Pipeline, build_compile_pipeline

SCHEDULER_CHOICES = ("xtalk", "par", "serial", "disable")


@dataclass
class CompilationResult:
    """Everything the pipeline produced."""

    circuit: QuantumCircuit            #: ready for NoisyBackend.run
    layout: Tuple[int, ...]            #: logical qubit -> device qubit
    scheduler: str
    duration: float                    #: hardware-schedule makespan (ns)
    scheduled: Optional[ScheduledCircuit] = None  #: XtalkSched artifacts
    trace: Optional[Trace] = None  #: per-pass timing and counters

    @property
    def serialized_pairs(self) -> Tuple[Tuple[int, int], ...]:
        if self.scheduled is None:
            return ()
        return self.scheduled.serialized_pairs


def compile_pipeline(scheduler: str = "xtalk",
                     select_region: bool = False) -> Pipeline:
    """The full compile pipeline for one policy (``repro.pipeline`` alias)."""
    return build_compile_pipeline(scheduler, select_region=select_region)


def compile_circuit(circuit: QuantumCircuit, device: Device,
                    report: Optional[CrosstalkReport] = None,
                    scheduler: str = "xtalk", omega: float = 0.5,
                    initial_layout: Optional[Sequence[int]] = None,
                    day: int = 0,
                    max_solve_seconds: Optional[float] = None,
                    fallback: str = "incumbent") -> CompilationResult:
    """Compile a logical circuit for a device.

    Args:
        circuit: logical circuit; two-qubit gates may be non-adjacent
            (SWAPs are inserted) and may use swap/cz macros (lowered to
            CNOTs).  Measurements are preserved; clbits keep their ids.
        device: target device (only compiler-visible data is used).
        report: crosstalk characterization; required for the ``"xtalk"``
            scheduler (run a :class:`CharacterizationCampaign` to get one).
        scheduler: ``"xtalk"`` (default), ``"par"``, ``"serial"``, or
            ``"disable"`` (the blanket nearby-gate-disable policy).
        omega: XtalkSched's crosstalk weight factor.
        initial_layout: logical->device placement; defaults to identity.
        max_solve_seconds: XtalkSched solver budget; when exhausted the
            scheduler degrades per ``fallback`` instead of raising (see
            ``docs/resilience.md``).
        fallback: ``"incumbent"`` (keep the solver's best-so-far valid
            schedule) or ``"par"`` (submit unchanged, ParSched-style).

    Returns:
        A :class:`CompilationResult` whose ``circuit`` is hardware-ready and
        whose ``trace`` carries the per-pass wall times and counters.
    """
    if scheduler not in SCHEDULER_CHOICES:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; pick from {SCHEDULER_CHOICES}"
        )
    if scheduler == "xtalk" and report is None:
        raise ValueError("the xtalk scheduler needs a characterization report")

    context = PassContext(
        device=device,
        day=day,
        report=report,
        omega=omega,
        initial_layout=initial_layout,
        circuit=circuit,
    )
    scheduler_kwargs = None
    if scheduler == "xtalk" and max_solve_seconds is not None:
        scheduler_kwargs = {
            "max_solve_seconds": max_solve_seconds,
            "fallback": fallback,
        }
    build_compile_pipeline(scheduler, scheduler_kwargs=scheduler_kwargs).run(context)
    return CompilationResult(
        circuit=context.circuit,
        layout=tuple(context.layout),
        scheduler=scheduler,
        duration=context.duration,
        scheduled=context.scheduled,
        trace=context.trace,
    )
