"""The noisy executor — this reproduction's stand-in for IBMQ hardware.

:class:`NoisyBackend` accepts a hardware-compliant circuit (two-qubit gates
on coupling edges, orderings expressed through barriers), times it with the
IBMQ hardware-scheduling model (right-aligned, simultaneous readout), and
executes it with the three noise processes of DESIGN.md §2:

* every two-qubit gate suffers depolarizing noise at its **conditional**
  error rate, determined by which other two-qubit gates actually overlap it
  in the final schedule (ground-truth crosstalk model, max over partners);
* every idle window on an active qubit suffers T1/T2 decay — and the clock
  on a qubit starts at its first operation, matching the paper's lifetime
  semantics;
* measurement suffers per-qubit readout error.

The backend is also the substrate under the RB/SRB characterization
experiments, which run through :meth:`NoisyBackend.schedule_of` +
:meth:`NoisyBackend.gate_error_rates` with a stabilizer simulator (see
:mod:`repro.rb.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.device.device import Device
from repro.device.topology import normalize_edge
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.sim.channels import decay_probabilities, distribution_to_counts
from repro.sim.density import NoisyOp, exact_output_distributions
from repro.transpiler.schedule import Schedule
from repro.transpiler.scheduling import hardware_schedule

if TYPE_CHECKING:
    # Annotations only: importing repro.resilience ahead of repro.parallel
    # closes the repro.parallel <-> repro.resilience import cycle.
    from repro.resilience.faults import FaultInjector
    from repro.resilience.retry import RetryPolicy


@dataclass
class ExecutionResult:
    """Counts plus the schedule the hardware actually ran."""

    counts: Dict[str, int]
    probabilities: np.ndarray
    schedule: Schedule
    measured_qubits: Tuple[int, ...]
    shots: int

    @property
    def duration(self) -> float:
        return self.schedule.makespan()

    def distribution(self) -> Dict[str, float]:
        total = sum(self.counts.values())
        return {bits: c / total for bits, c in self.counts.items()}


class NoisyBackend:
    """Executes circuits against a :class:`~repro.device.device.Device`.

    ``faults`` injects simulated job rejections/timeouts at the
    ``"backend.job"`` fault site (raised before any simulation work, like
    a queued hardware job dying); ``retry`` makes :meth:`run`,
    :meth:`run_schedule` and :meth:`run_batch` resubmit such transient
    failures with deterministic backoff instead of surfacing them.

    ``workers`` is accepted and ignored: it no longer affects execution,
    since every run evolves one exact density matrix in the calling
    process.
    """

    def __init__(self, device: Device, day: int = 0, seed: Optional[int] = None,
                 workers: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[FaultInjector] = None):
        self.device = device
        self.day = day
        self._seed = seed if seed is not None else device.seed * 7919 + day
        self.retry = retry
        self.faults = faults

    # ------------------------------------------------------------------
    # timing and error-rate assignment (shared with the RB executor)
    # ------------------------------------------------------------------
    def schedule_of(self, circuit: QuantumCircuit) -> Schedule:
        """Time the circuit exactly as the hardware would."""
        return hardware_schedule(circuit, self.device.calibration(self.day).durations)

    def gate_error_rates(self, schedule: Schedule) -> Dict[int, float]:
        """True error probability of every gate in a schedule.

        Two-qubit gates get their worst conditional rate over actually
        overlapping two-qubit partners; single-qubit gates get the qubit's
        calibrated rate.  Keys are instruction indices.
        """
        cal = self.device.calibration(self.day)
        crosstalk = self.device.crosstalk
        rates: Dict[int, float] = {}
        two_qubit_ops = schedule.two_qubit_ops()
        for op in schedule:
            instr = op.instruction
            if instr.is_directive or instr.is_measure:
                continue
            if instr.is_two_qubit:
                edge = normalize_edge(instr.qubits)
                partners = [
                    normalize_edge(other.instruction.qubits)
                    for other in two_qubit_ops
                    if other.index != op.index and other.overlaps(op)
                ]
                rates[op.index] = crosstalk.worst_conditional_error(
                    edge, partners, cal, self.day
                )
            else:
                rates[op.index] = cal.single_qubit_error[instr.qubits[0]]
        return rates

    # ------------------------------------------------------------------
    # lowering to the noisy event stream
    # ------------------------------------------------------------------
    def lower(self, schedule: Schedule) -> Tuple[List[NoisyOp], Dict[int, int], List[Tuple[int, int]]]:
        """Lower a schedule to noisy events over reused simulator slots.

        Returns ``(events, qubit_map, measures)`` where ``qubit_map`` maps
        device qubit -> simulator slot and ``measures`` lists
        ``(clbit, device_qubit)`` pairs.

        Walking the time-ordered operations, a qubit takes a slot at its
        first operation.  An unmeasured qubit frees its slot after its last
        one; measured qubits keep theirs to the end.  A qubit that takes a
        freed slot first resets it with a full amplitude damping
        (``gamma = 1``: exactly ``rho -> |0><0| (x) Tr_slot rho``), which
        discards the finished qubit without touching the others.  Greedy
        assignment in start order colours the live intervals optimally, so
        the slot count is the peak number of simultaneously live qubits.

        A qubit measured twice raises ``ValueError``: its outcome would
        need one slot read into two clbits.
        """
        cal = self.device.calibration(self.day)
        rates = self.gate_error_rates(schedule)

        ordered = sorted(
            (op for op in schedule if not op.instruction.is_barrier),
            key=lambda op: (op.start, op.index),
        )
        measured: Dict[int, int] = {}
        last_op: Dict[int, int] = {}
        for pos, op in enumerate(ordered):
            instr = op.instruction
            if instr.is_measure:
                q = instr.qubits[0]
                if q in measured:
                    raise ValueError(
                        f"qubit {q} is measured twice, into clbits "
                        f"{measured[q]} and {instr.clbit}; measure each "
                        f"qubit once"
                    )
                measured[q] = instr.clbit
            for q in instr.qubits:
                last_op[q] = pos

        qubit_map: Dict[int, int] = {}
        free_slots: List[int] = []
        num_slots = 0
        last_end: Dict[int, float] = {}
        events: List[NoisyOp] = []
        measures: List[Tuple[int, int]] = []
        for pos, op in enumerate(ordered):
            instr = op.instruction
            for q in instr.qubits:
                if q in qubit_map:
                    # Idle decay since the previous operation on each
                    # operand; a qubit's clock starts at its first
                    # operation (paper §9.1).
                    if op.start > last_end[q] + 1e-9:
                        gamma, p_z = decay_probabilities(
                            op.start - last_end[q], cal.t1[q], cal.t2[q]
                        )
                        events.append(NoisyOp.decay(qubit_map[q], gamma, p_z))
                elif free_slots:
                    qubit_map[q] = free_slots.pop()
                    events.append(NoisyOp.decay(qubit_map[q], 1.0, 0.0))
                else:
                    qubit_map[q] = num_slots
                    num_slots += 1
                last_end[q] = op.end
            if instr.is_measure:
                measures.append((instr.clbit, instr.qubits[0]))
            elif instr.name != "delay":
                events.append(
                    NoisyOp.gate(
                        instr.name,
                        tuple(qubit_map[q] for q in instr.qubits),
                        instr.params,
                        error_prob=rates.get(op.index, 0.0),
                    )
                )
            for q in instr.qubits:
                if last_op[q] == pos and q not in measured:
                    free_slots.append(qubit_map[q])
        measures.sort()
        return events, qubit_map, measures

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, shots: int = 1024,
            readout_error: bool = True,
            seed: Optional[int] = None) -> ExecutionResult:
        """Execute a circuit and return sampled counts (clbit 0 rightmost).

        The circuit is timed by the hardware scheduler (right-aligned,
        barrier-respecting) — the circuit-level ISA path.  ``seed``
        (default: the backend's own) drives the shot sampling.  This is
        a one-circuit :meth:`run_batch`.
        """
        return self.run_batch([circuit], shots=shots,
                              readout_error=readout_error, seed=seed)[0]

    def run_batch(self, circuits: Sequence[QuantumCircuit],
                  shots: int = 1024, readout_error: bool = True,
                  seed: Optional[int] = None) -> List[ExecutionResult]:
        """Execute several circuits as one job; results in input order.

        Each circuit is timed by the hardware scheduler and lowered on its
        own; the batch then evolves through
        :func:`~repro.sim.density.exact_output_distributions`, which
        evolves the event prefix the circuits share once.  Every result
        is bitwise equal to running its circuit alone, and each circuit's
        counts come from a fresh generator seeded by ``seed``.
        """
        for circuit in circuits:
            if not any(instr.is_measure for instr in circuit):
                raise ValueError("circuit has no measurements")
        return self._submit([self.schedule_of(c) for c in circuits],
                            shots, readout_error, seed)

    def run_schedule(self, schedule: Schedule, shots: int = 1024,
                     readout_error: bool = True,
                     seed: Optional[int] = None) -> ExecutionResult:
        """Execute an explicitly timed schedule (the pulse-level ISA path).

        Recent IBMQ systems expose OpenPulse-style control (the paper's
        footnote 2); this entry point models it: the caller's start times
        are executed verbatim, with no right-alignment or barrier
        re-scheduling.  Error rates still derive from the schedule's actual
        overlaps.  Otherwise it is a one-schedule job on the
        :meth:`run_batch` path.
        """
        if not any(t.instruction.is_measure for t in schedule):
            raise ValueError("schedule has no measurements")
        return self._submit([schedule], shots, readout_error, seed)[0]

    def _submit(self, schedules: Sequence[Schedule], shots: int,
                readout_error: bool,
                seed: Optional[int]) -> List[ExecutionResult]:
        """Lower ``schedules`` and run them as one job.

        The lowered event streams run through the exact noisy channel, so
        ``probabilities`` carry no sampling noise; only the counts are
        sampled, from ``seed``.

        Job submission is the ``"backend.job"`` fault site: an injected
        rejection or timeout raises
        :class:`~repro.resilience.errors.BackendJobError` before any
        simulation work, and a ``retry`` policy resubmits the whole job.
        The result is identical to an unfaulted run — the sampling seed
        derives from the job's stable identity, never from the attempt
        number.
        """
        lowered = [self.lower(schedule) for schedule in schedules]
        measured = [tuple(q for _, q in measures)
                    for _, _, measures in lowered]
        streams = [
            (events, len(set(qubit_map.values())),
             [qubit_map[q] for q in qubits])
            for (events, qubit_map, _), qubits in zip(lowered, measured)
        ]
        job_key = (self._seed, self.day, shots, seed)

        def job() -> List[ExecutionResult]:
            if self.faults is not None:
                self.faults.check("backend.job", job_key)
            with obs_span("backend.run_schedule") as record:
                distributions = exact_output_distributions(streams)
            registry = get_registry()
            registry.inc("backend.runs", len(streams))
            registry.observe("backend.run_seconds", record.seconds)

            # Keyed by device qubit: slots are shared, so a slot's readout
            # error is not well defined.
            readout = (self.device.readout_model(self.day)
                       if readout_error else None)
            confusion: Dict[Tuple[int, ...], np.ndarray] = {}
            seed_val = seed if seed is not None else self._seed
            results = []
            for schedule, qubits, probs in zip(schedules, measured,
                                               distributions):
                if readout is not None:
                    if qubits not in confusion:
                        confusion[qubits] = readout.confusion_matrix(qubits)
                    probs = confusion[qubits] @ probs
                counts = distribution_to_counts(
                    probs, shots, np.random.default_rng(seed_val))
                results.append(ExecutionResult(
                    counts=counts,
                    probabilities=probs,
                    schedule=schedule,
                    measured_qubits=qubits,
                    shots=shots,
                ))
            return results

        if self.retry is not None:
            return self.retry.call(job, site="backend.job", key=job_key)
        return job()
