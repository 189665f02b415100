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

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.device.device import Device
from repro.device.topology import normalize_edge
from repro.obs.registry import get_registry
from repro.obs.trace import span as obs_span
from repro.parallel import ParallelEngine, SharedPayload, stable_seed_sequence
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.sim.channels import (
    ReadoutModel,
    decay_probabilities,
    distribution_to_counts,
)
from repro.sim.trajectory import (
    ENGINE_CODES,
    BatchedTrajectorySimulator,
    NoisyOp,
)
from repro.transpiler.schedule import Schedule
from repro.transpiler.scheduling import hardware_schedule

#: Smallest and largest trajectory-chunk sizes the planner will emit.
MIN_TRAJECTORY_CHUNK = 16
MAX_TRAJECTORY_CHUNK = 256

#: Amplitude budget per batched chunk: a chunk of ``B`` trajectories on
#: ``n`` qubits evolves a ``B * 2**n`` complex array, so the planner sizes
#: ``B`` to keep that array near ~32 MiB (2**21 amplitudes).
_CHUNK_AMPLITUDE_BUDGET = 1 << 21


def plan_trajectory_chunks(trajectories: int,
                           num_qubits: int) -> List[Tuple[int, int]]:
    """Deterministic chunk plan: ``[(first_trajectory, count), ...]``.

    Keyed only on ``(trajectories, num_qubits)`` — never the worker count —
    so chunk boundaries, each chunk's per-trajectory seed window, and the
    order-preserving merge are identical whether the chunks run serially
    or across any pool, keeping the output distribution bitwise
    reproducible for every worker count.  The chunk size scales down with
    qubit count to bound the batched engine's ``B * 2**n`` working set,
    and a budget that fits one chunk yields a single-entry plan (which the
    backend runs inline, skipping pool spin-up entirely).
    """
    if trajectories <= 0:
        raise ValueError("need at least one trajectory")
    chunk = max(
        MIN_TRAJECTORY_CHUNK,
        min(MAX_TRAJECTORY_CHUNK, _CHUNK_AMPLITUDE_BUDGET >> num_qubits),
    )
    if trajectories <= chunk:
        return [(0, trajectories)]
    plan = [(start, chunk) for start in range(0, trajectories - chunk + 1, chunk)]
    done = plan[-1][0] + chunk
    if done < trajectories:
        plan.append((done, trajectories - done))
    return plan


def _trajectory_chunk_task(context, item):
    """Accumulate one chunk of trajectories (module-level for pickling).

    ``item`` is a ``(first_trajectory, count)`` window from
    :func:`plan_trajectory_chunks`; the simulator derives each
    trajectory's RNG stream from its global index, so the window's
    contribution is independent of which worker runs it.
    """
    events, measured_sim_qubits, num_qubits, root, engine = context
    start, count = item
    sim = BatchedTrajectorySimulator(num_qubits, seed=root, engine=engine)
    return sim.accumulate(
        events, measured_sim_qubits, count, first_trajectory=start
    )


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
    a queued hardware job dying); ``retry`` makes :meth:`run` and
    :meth:`run_schedule` resubmit such transient failures with
    deterministic backoff instead of surfacing them.
    """

    def __init__(self, device: Device, day: int = 0, seed: Optional[int] = None,
                 workers: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[FaultInjector] = None,
                 sim_engine: str = "batched"):
        if sim_engine not in ENGINE_CODES:
            raise ValueError(
                f"unknown sim engine {sim_engine!r}; "
                f"pick from {sorted(ENGINE_CODES)}"
            )
        self.device = device
        self.day = day
        self._seed = seed if seed is not None else device.seed * 7919 + day
        self.workers = workers
        self.retry = retry
        self.faults = faults
        #: Trajectory engine: ``"batched"``, or the ``"scalar"`` reference
        #: path that parity tests and serial benchmark legs select.
        self.sim_engine = sim_engine
        #: ``parallel.*`` counters accumulated across every run (workers is
        #: a level, not an accumulator).
        self.counters: Dict[str, float] = {}

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
    # lowering to the trajectory simulator
    # ------------------------------------------------------------------
    def lower(self, schedule: Schedule) -> Tuple[List[NoisyOp], Dict[int, int], List[Tuple[int, int]]]:
        """Lower a schedule to noisy events over compacted qubit indices.

        Returns ``(events, qubit_map, measures)`` where ``qubit_map`` maps
        device qubit -> simulator qubit and ``measures`` lists
        ``(clbit, device_qubit)`` pairs.
        """
        cal = self.device.calibration(self.day)
        active = schedule.circuit.active_qubits()
        qubit_map = {q: i for i, q in enumerate(active)}
        rates = self.gate_error_rates(schedule)

        ordered = sorted(
            (op for op in schedule if not op.instruction.is_barrier),
            key=lambda op: (op.start, op.index),
        )
        last_end: Dict[int, float] = {}
        events: List[NoisyOp] = []
        measures: List[Tuple[int, int]] = []
        for op in ordered:
            instr = op.instruction
            # Idle decay since the previous operation on each operand; a
            # qubit's clock starts at its first operation (paper §9.1).
            for q in instr.qubits:
                if q in last_end and op.start > last_end[q] + 1e-9:
                    gamma, p_z = decay_probabilities(
                        op.start - last_end[q], cal.t1[q], cal.t2[q]
                    )
                    events.append(NoisyOp.decay(qubit_map[q], gamma, p_z))
                last_end[q] = op.end
            if instr.is_measure:
                measures.append((instr.clbit, instr.qubits[0]))
                continue
            if instr.name == "delay":
                continue
            events.append(
                NoisyOp.gate(
                    instr.name,
                    tuple(qubit_map[q] for q in instr.qubits),
                    instr.params,
                    error_prob=rates.get(op.index, 0.0),
                )
            )
        measures.sort()
        return events, qubit_map, measures

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, shots: int = 1024,
            trajectories: int = 64, readout_error: bool = True,
            seed: Optional[int] = None,
            workers: Optional[int] = None) -> ExecutionResult:
        """Execute a circuit and return sampled counts (clbit 0 rightmost).

        The circuit is timed by the hardware scheduler (right-aligned,
        barrier-respecting) — the circuit-level ISA path.  ``workers`` fans
        the trajectory budget over a process pool; the distribution is
        bitwise identical for every worker count.  ``seed`` (default: the
        backend's own) roots both the trajectory streams and the shot
        sampling.
        """
        if not any(instr.is_measure for instr in circuit):
            raise ValueError("circuit has no measurements")
        return self.run_schedule(
            self.schedule_of(circuit), shots=shots, trajectories=trajectories,
            readout_error=readout_error, seed=seed, workers=workers,
        )

    def run_schedule(self, schedule: Schedule, shots: int = 1024,
                     trajectories: int = 64, readout_error: bool = True,
                     seed: Optional[int] = None,
                     workers: Optional[int] = None) -> ExecutionResult:
        """Execute an explicitly timed schedule (the pulse-level ISA path).

        Recent IBMQ systems expose OpenPulse-style control (the paper's
        footnote 2); this entry point models it: the caller's start times
        are executed verbatim, with no right-alignment or barrier
        re-scheduling.  Error rates still derive from the schedule's actual
        overlaps.

        Trajectories are split by :func:`plan_trajectory_chunks` (keyed on
        budget and qubit count, never worker count), every trajectory's
        RNG stream derives from its global index under a stable root seed,
        and the partial accumulators merge in chunk order — so the
        probabilities do not depend on ``workers``.  A budget that fits
        one chunk runs inline with no pool at all.

        Job submission is the ``"backend.job"`` fault site: an injected
        rejection or timeout raises
        :class:`~repro.resilience.errors.BackendJobError` before any
        simulation work, and a ``retry`` policy resubmits it.  The result
        is identical to an unfaulted run — simulation seeds derive from
        the job's stable identity, never from the attempt number.
        """
        job_key = (self._seed, self.day, shots, trajectories, seed)

        def submit() -> ExecutionResult:
            if self.faults is not None:
                self.faults.check("backend.job", job_key)
            return self._run_schedule_once(
                schedule, shots=shots, trajectories=trajectories,
                readout_error=readout_error, seed=seed, workers=workers,
            )

        if self.retry is not None:
            return self.retry.call(submit, site="backend.job", key=job_key)
        return submit()

    def _run_schedule_once(self, schedule: Schedule, shots: int,
                           trajectories: int, readout_error: bool,
                           seed: Optional[int],
                           workers: Optional[int]) -> ExecutionResult:
        if not any(t.instruction.is_measure for t in schedule):
            raise ValueError("schedule has no measurements")
        if trajectories <= 0:
            raise ValueError("need at least one trajectory")
        events, qubit_map, measures = self.lower(schedule)
        measured_device_qubits = tuple(q for _, q in measures)
        measured_sim_qubits = [qubit_map[q] for q in measured_device_qubits]

        seed_val = seed if seed is not None else self._seed
        plan = plan_trajectory_chunks(trajectories, len(qubit_map))
        root = stable_seed_sequence("backend.trajectories", seed_val)

        registry = get_registry()
        registry.set("sim.engine", float(ENGINE_CODES[self.sim_engine]))
        context = (events, measured_sim_qubits, len(qubit_map), root,
                   self.sim_engine)
        with obs_span("backend.run_schedule") as record:
            record.counters["backend.trajectories"] = float(trajectories)
            record.counters["backend.chunks"] = float(len(plan))
            if len(plan) == 1:
                # A one-chunk plan needs no fan-out: run inline, skipping
                # pool spin-up *and* the serial-fallback probe.
                started = time.perf_counter()
                partials = [_trajectory_chunk_task(context, plan[0])]
                wall = time.perf_counter() - started
                registry.set("parallel.mode", 0.0)
                self.counters["parallel.tasks"] = (
                    self.counters.get("parallel.tasks", 0.0) + 1.0
                )
                self.counters["parallel.wall_seconds"] = (
                    self.counters.get("parallel.wall_seconds", 0.0) + wall
                )
                self.counters["parallel.serial_seconds_estimate"] = (
                    self.counters.get("parallel.serial_seconds_estimate", 0.0)
                    + wall
                )
                self.counters.setdefault("parallel.workers", 1.0)
            else:
                with SharedPayload(
                    context, name="backend.trajectories"
                ) as payload:
                    with ParallelEngine(
                        workers if workers is not None else self.workers,
                        name="backend.trajectories",
                    ) as engine:
                        partials = engine.map(
                            _trajectory_chunk_task, plan, payload,
                        )
                for name, value in engine.counters.items():
                    if name == "parallel.workers":
                        self.counters[name] = value
                    else:
                        self.counters[name] = (
                            self.counters.get(name, 0.0) + value
                        )
            total = np.zeros(2 ** len(measured_sim_qubits))
            for partial in partials:
                total += partial
            probs = total / trajectories
        registry.inc("backend.runs")
        registry.inc("backend.trajectories", trajectories)
        registry.observe("backend.run_seconds", record.seconds)

        readout = None
        if readout_error:
            cal = self.device.calibration(self.day)
            errs = tuple(cal.readout_error[q] for q in qubit_map)
            readout = ReadoutModel(errs, errs)
        if readout is not None:
            probs = readout.restrict(measured_sim_qubits).apply_to_distribution(
                probs, range(len(measured_sim_qubits))
            )
        counts = distribution_to_counts(probs, shots,
                                        np.random.default_rng(seed_val))
        return ExecutionResult(
            counts=counts,
            probabilities=probs,
            schedule=schedule,
            measured_qubits=measured_device_qubits,
            shots=shots,
        )
