"""Baseline schedulers and the IBMQ hardware-timing model.

Three timing policies appear in the paper (Table 1):

* ``SerialSched`` — every instruction strictly after the previous one;
* ``ParSched`` — maximum parallelism.  On IBM hardware this is additionally
  *right-aligned*: readout of all qubits happens simultaneously at the end,
  and every gate is pushed as late as its dependencies allow (Figure 1c).
  :func:`hardware_schedule` implements exactly this and is what the noisy
  backend uses to time any submitted circuit — including circuits that
  XtalkSched has post-processed with barriers;
* ``XtalkSched`` — lives in :mod:`repro.core.scheduling`; its output is
  enforced through barriers and then timed by the same hardware model.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Instruction
from repro.device.calibration import GateDurations
from repro.transpiler.schedule import Schedule


def _wires(instr: Instruction) -> Tuple[int, ...]:
    """The wires an instruction orders on: its qubits, then its clbit
    (keyed ``-1 - clbit`` so the two kinds never collide)."""
    if instr.clbit is None:
        return instr.qubits
    return instr.qubits + (-1 - instr.clbit,)


def _asap_starts(circuit: QuantumCircuit,
                 durations: Sequence[float]) -> List[float]:
    """ASAP start times in one program-order pass.

    An instruction's dependency predecessors are exactly the last earlier
    instruction on each of its wires (the edges of the dependency DAG in
    :mod:`repro.circuit.dag`), so it starts at the latest end among them,
    read from a per-wire map of the last writer's end.
    """
    start = [0.0] * len(circuit)
    wire_end: Dict[int, float] = {}
    for idx, instr in enumerate(circuit):
        wires = _wires(instr)
        ends = [wire_end[w] for w in wires if w in wire_end]
        if ends:
            start[idx] = max(ends)
        end = start[idx] + durations[idx]
        for w in wires:
            wire_end[w] = end
    return start


def asap_schedule(circuit: QuantumCircuit, durations: GateDurations) -> Schedule:
    """As-soon-as-possible schedule respecting the dependency DAG."""
    return Schedule(circuit, durations,
                    _asap_starts(circuit, [durations.of(i) for i in circuit]))


def alap_schedule(circuit: QuantumCircuit, durations: GateDurations,
                  align_measurements: bool = True) -> Schedule:
    """As-late-as-possible (right-aligned) schedule.

    With ``align_measurements`` (the IBMQ behaviour), all measure operations
    start simultaneously at the common readout time, and every other gate is
    pushed right against its earliest successor.  The overall makespan is
    the ASAP makespan — right alignment never stretches the program.

    The pass runs backwards over program order: an instruction's dependency
    successors are exactly the next later instruction on each of its wires,
    read from a per-wire map of the next reader's start.
    """
    dur = [durations.of(instr) for instr in circuit]
    asap = _asap_starts(circuit, dur)

    measure_indices = [i for i, ins in enumerate(circuit) if ins.is_measure]
    if align_measurements and measure_indices:
        readout_start = max(asap[i] for i in measure_indices)
        horizon = readout_start
    else:
        readout_start = None
        horizon = max((s + d for s, d in zip(asap, dur)), default=0.0)

    start = [0.0] * len(circuit)
    wire_start: Dict[int, float] = {}
    for idx in reversed(range(len(circuit))):
        instr = circuit[idx]
        wires = _wires(instr)
        if instr.is_measure and readout_start is not None:
            start[idx] = readout_start
        else:
            nexts = [wire_start[w] for w in wires if w in wire_start]
            start[idx] = (min(nexts) if nexts else horizon) - dur[idx]
        for w in wires:
            wire_start[w] = start[idx]
    # Barriers may land at negative times when a barrier has no
    # predecessors; clamp directives (they are zero-duration markers).
    for idx, instr in enumerate(circuit):
        if instr.is_directive and start[idx] < 0.0:
            start[idx] = 0.0
    earliest = min(start, default=0.0)
    shift = -earliest if earliest < 0.0 else 0.0
    return Schedule(circuit, durations, [s + shift for s in start])


def serial_schedule(circuit: QuantumCircuit, durations: GateDurations) -> Schedule:
    """Fully serialized schedule (``SerialSched``).

    Every non-measure instruction runs strictly after the previous one in
    program order; all measurements then fire simultaneously (the hardware
    performs readout of every qubit at once).
    """
    start = [0.0] * len(circuit)
    clock = 0.0
    for idx, instr in enumerate(circuit):
        if instr.is_measure:
            continue
        start[idx] = clock
        clock += durations.of(instr)
    for idx, instr in enumerate(circuit):
        if instr.is_measure:
            start[idx] = clock
    return Schedule(circuit, durations, start)


def hardware_schedule(circuit: QuantumCircuit, durations: GateDurations) -> Schedule:
    """How IBMQ control hardware times a submitted circuit.

    Maximum parallelism, right alignment, simultaneous readout — i.e. the
    ParSched policy — while honouring any barriers present in the circuit.
    This single entry point is used by the noisy backend for *every*
    scheduler: the baselines and XtalkSched differ only in the barriers
    they insert (and, for SerialSched, in barriers after each gate).
    """
    return alap_schedule(circuit, durations, align_measurements=True)


def fully_barriered(circuit: QuantumCircuit) -> QuantumCircuit:
    """Insert a global barrier after every instruction (``SerialSched``'s
    circuit-level encoding)."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                         f"{circuit.name}_serial")
    pending_measures = [ins for ins in circuit if ins.is_measure]
    for instr in circuit:
        if instr.is_barrier or instr.is_measure:
            continue
        out.append(instr)
        out.barrier()
    for instr in pending_measures:
        out.append(instr)
    return out
