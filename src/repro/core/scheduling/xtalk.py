"""``XtalkSched``: the crosstalk-adaptive instruction scheduler.

Implements the optimization of Section 7 on top of
:mod:`repro.smt`:

* a start-time variable per gate (all readouts share one variable —
  the IBMQ simultaneous-readout constraint);
* data-dependency difference constraints (eq. 1);
* one categorical decision per *candidate pair* — two-qubit gates that are
  DAG-concurrent and whose edges the characterization report classifies as
  high crosstalk (the pruning of ``CanOlp`` described in Section 7.2) —
  with options {gi first, gj first, overlap-with-containment}, covering
  the IBMQ-valid disjunction (eqs. 11–13);
* gate-error terms ``ω Σ log g.ε`` where ``g.ε`` is the max conditional
  rate over partners decided to overlap (the powerset constraints (3)–(8)
  collapse to this max once the overlap indicators are decided);
* decoherence terms ``(1-ω) Σ q.t / q.T`` with ``q.t`` the first-gate to
  last-operation lifetime (eqs. 9–10, linearized as in eq. 16).

Note on the objective's sign (documented in DESIGN.md): the paper prints
``min ω Σ log g.ε − (1-ω) Σ q.t/q.T`` (eq. 17), which would *reward* long
lifetimes and contradicts the stated ω=0 ≡ ParSched behaviour; we implement
the evidently intended ``+``.

The solver's optimal start times are then realized with barriers
(:func:`repro.transpiler.barriers.reorder_and_barrier`) and the result is
re-timed by the hardware's right-aligned scheduler at execution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDag
from repro.core.characterization.report import CrosstalkReport
from repro.device.calibration import Calibration
from repro.device.topology import normalize_edge
from repro.smt.budget import Budget
from repro.smt.model import Decision, DiffConstraint, Option, ScheduleModel
from repro.smt.solver import OptimizingSolver, Solution
from repro.smt.windows import WindowedSolver
from repro.transpiler.barriers import reorder_and_barrier, strip_barriers
from repro.transpiler.schedule import Schedule

_MIN_ERROR = 1e-6
_OVERLAP = "overlap"

#: Valid ``strategy=`` values for :class:`XtalkScheduler`.
STRATEGIES = ("auto", "monolithic", "windowed")

#: ``schedule.strategy`` gauge encoding (the *resolved* strategy — auto
#: reports as whichever mode it picked).
STRATEGY_CODES = {"monolithic": 0, "windowed": 1}


@dataclass
class CandidatePair:
    """One high-crosstalk decision pair."""

    gate_i: int
    gate_j: int
    conditional_i: float  # E(gi | gj)
    conditional_j: float  # E(gj | gi)


class XtalkPartialCost:
    """The ω Σ log g.ε objective part, monotone in overlap decisions.

    It holds only plain floats extracted from the calibration/report at
    build time — no reference back to the scheduler.
    """

    def __init__(self, omega: float, base: float,
                 independent: Dict[int, float],
                 pairs: Tuple[CandidatePair, ...]):
        self.omega = omega
        self.base = base
        self.independent = independent
        self.pairs = pairs

    def __call__(self, assignment: Tuple[int, ...]) -> float:
        if self.omega == 0.0:
            return 0.0
        eps = dict(self.independent)
        for k, choice in enumerate(assignment):
            if choice == 2:  # overlap option index
                pair = self.pairs[k]
                eps[pair.gate_i] = max(eps[pair.gate_i], pair.conditional_i)
                eps[pair.gate_j] = max(eps[pair.gate_j], pair.conditional_j)
        return self.base + self.omega * sum(
            math.log(max(e, _MIN_ERROR)) for e in eps.values()
        )


@dataclass
class ScheduledCircuit:
    """XtalkSched output: the barriered circuit plus solver artifacts.

    ``fallback_reason`` is ``None`` for a normal solve; otherwise it names
    why the scheduler degraded (``"solve_budget:incumbent"`` — the solver
    budget expired and the incumbent was kept; ``"solve_budget:par"`` —
    the budget expired and the circuit was submitted ParSched-style;
    ``"solver_error:<Type>"`` — the solver raised and ParSched was used).
    The circuit is valid and submittable in every case.
    """

    circuit: QuantumCircuit
    intended_schedule: Schedule
    solution: Solution
    candidate_pairs: Tuple[CandidatePair, ...]
    option_labels: Tuple[str, ...]
    compile_seconds: float
    fallback_reason: Optional[str] = None
    #: The *resolved* solve strategy ("monolithic" or "windowed" —
    #: ``strategy="auto"`` reports whichever it picked).
    strategy: str = "monolithic"

    @property
    def serialized_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Candidate pairs the solver chose to serialize (not overlap)."""
        return tuple(
            (pair.gate_i, pair.gate_j)
            for pair, label in zip(self.candidate_pairs, self.option_labels)
            if label != _OVERLAP
        )

    @property
    def overlapped_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (pair.gate_i, pair.gate_j)
            for pair, label in zip(self.candidate_pairs, self.option_labels)
            if label == _OVERLAP
        )

    def audit(self) -> Dict[str, int]:
        """Decision-audit counts: what the solver was offered vs. took.

        ``warranted`` is the number of candidate pairs (DAG-concurrent,
        high-crosstalk — serialization was on the table), ``taken`` how
        many the solver actually serialized, ``overlapped`` the rest, and
        ``fallbacks`` whether this schedule degraded.  These counts feed
        the ``schedule.*`` counters and the scheduler scorecard, so a
        solver that silently stops serializing shows up in run diffs.
        """
        return {
            "warranted": len(self.candidate_pairs),
            "taken": len(self.serialized_pairs),
            "overlapped": len(self.overlapped_pairs),
            "fallbacks": 1 if self.fallback_reason is not None else 0,
        }

    def audit_scorecard(self, name: str = "xtalk_sched"):
        """This schedule's audit as a ``repro.obs.scorecard/v1`` record."""
        from repro.obs.events import current_run_id
        from repro.obs.scorecard import schedule_audit_scorecard

        counts = self.audit()
        return schedule_audit_scorecard(
            name,
            serializations_taken=counts["taken"],
            serializations_warranted=counts["warranted"],
            fallbacks=counts["fallbacks"],
            run_id=current_run_id(),
            strategy=self.strategy,
        )


class XtalkScheduler:
    """Builds and solves the Section 7 model for one circuit."""

    def __init__(self, calibration: Calibration, report: CrosstalkReport,
                 omega: float = 0.5, exact_decision_limit: int = 14,
                 max_nodes: int = 200_000,
                 minimal_barriers: bool = True, isa: str = "barrier",
                 max_solve_seconds: Optional[float] = None,
                 fallback: str = "incumbent",
                 strategy: str = "auto"):
        if not 0.0 <= omega <= 1.0:
            raise ValueError("omega must be in [0, 1]")
        if isa not in ("barrier", "pulse"):
            raise ValueError("isa must be 'barrier' or 'pulse'")
        if fallback not in ("incumbent", "par"):
            raise ValueError("fallback must be 'incumbent' or 'par'")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        # Every strategy but monolithic solves exact windows of up to
        # exact_decision_limit decisions, which need room for one.
        if exact_decision_limit < 1 and strategy != "monolithic":
            raise ValueError(
                "exact_decision_limit must be >= 1 unless "
                f"strategy='monolithic', got exact_decision_limit="
                f"{exact_decision_limit} with strategy={strategy!r}"
            )
        self.calibration = calibration
        self.report = report
        self.omega = omega
        self.exact_decision_limit = exact_decision_limit
        self.max_nodes = max_nodes
        #: Solve-time budget in seconds.  When the solver exhausts it, the
        #: scheduler degrades instead of running arbitrarily long: with
        #: ``fallback="incumbent"`` (default) it realizes the solver's
        #: best-so-far valid schedule; with ``fallback="par"`` it submits
        #: the circuit unchanged (ParSched).  Either way the fallback is
        #: counted (``resilience.fallbacks``) and logged
        #: (``resilience.fallback``) rather than raised.
        self.max_solve_seconds = max_solve_seconds
        self.fallback = fallback
        #: How the model is solved.  ``"monolithic"`` is the historical
        #: single-model solve (exact below ``exact_decision_limit``
        #: decisions, greedy above); ``"windowed"`` decomposes the
        #: decision list into budget-shared exact windows
        #: (:class:`~repro.smt.windows.WindowedSolver`); ``"auto"``
        #: (default) stays monolithic within the exact limit and switches
        #: to windowed above it.
        self.strategy = strategy
        #: True (default): iterative realization that only barriers pairs
        #: still overlapping under the hardware re-schedule.  False: one
        #: barrier per serialized pair (the naive realization; kept for the
        #: ablation study — it over-constrains barrier-granularity hardware).
        self.minimal_barriers = minimal_barriers
        #: ``"barrier"`` (default): circuit-level ISA — overlapping gates
        #: must fully contain one another (eqs. 11-13) and the solved
        #: schedule is enforced with barriers, then re-timed by the
        #: hardware.  ``"pulse"``: OpenPulse-style control (footnote 2 of
        #: the paper) — overlap is unconstrained, no barriers are emitted,
        #: and the intended schedule executes verbatim via
        #: :meth:`NoisyBackend.run_schedule`.
        self.isa = isa

    # ------------------------------------------------------------------
    def schedule(self, circuit: QuantumCircuit) -> ScheduledCircuit:
        """Schedule a hardware-compliant circuit; returns the barriered
        circuit ready for submission plus the intended schedule."""
        started = time.perf_counter()
        circuit = strip_barriers(circuit)
        dag = CircuitDag(circuit)
        durations = self.calibration.durations

        var_of, num_vars, measure_var = self._assign_variables(circuit)
        model = ScheduleModel(num_vars)
        self._add_dependency_constraints(model, circuit, dag, var_of, durations)
        pairs = self._candidate_pairs(circuit, dag)
        self._add_decisions(model, circuit, pairs, var_of, durations)
        self._add_decoherence_objective(model, circuit, dag, var_of, durations)
        cost_fn = self._make_partial_cost(circuit, pairs)

        # One Budget owns the clock for every layer of the solve — the
        # façade, nested incumbents and windows all share it via
        # first-caller-wins arming, so the effective limit can never be
        # extended by nesting.
        budget = Budget(self.max_solve_seconds)
        resolved, backend = self._select_backend(model)
        solver = OptimizingSolver(
            model, cost_fn,
            exact_decision_limit=self.exact_decision_limit,
            max_nodes=self.max_nodes,
            budget=budget,
            backend=backend,
        )
        fallback_reason: Optional[str] = None
        try:
            solution = solver.solve()
        except Exception as error:
            reason = f"solver_error:{type(error).__name__}"
            self._note_fallback(reason, pairs)
            return self._record_audit(
                self._par_fallback(circuit, pairs, started, reason,
                                   strategy=resolved)
            )
        if solution.interrupt == "deadline":
            fallback_reason = f"solve_budget:{self.fallback}"
            self._note_fallback(fallback_reason, pairs)
            if self.fallback == "par":
                return self._record_audit(self._par_fallback(
                    circuit, pairs, started, fallback_reason,
                    strategy=resolved,
                ))
            # fallback == "incumbent": the interrupted solution is still a
            # valid schedule (every constraint holds); realize it.

        starts = [solution.times[var_of[idx]] for idx in range(len(circuit))]
        intended = Schedule(circuit, durations, starts)
        order = sorted(range(len(circuit)), key=lambda idx: (starts[idx], idx))
        labels = tuple(
            model.decisions[k].options[choice].label
            for k, choice in enumerate(solution.assignment)
        )
        serialized = [
            (pair.gate_i, pair.gate_j)
            for pair, label in zip(pairs, labels)
            if label != _OVERLAP
        ]
        if self.isa == "pulse":
            # Pulse-level control executes the intended times verbatim; the
            # reordered circuit is returned for inspection only.
            final = reorder_and_barrier(circuit, order, [])
        elif self.minimal_barriers:
            final = self._realize_with_barriers(circuit, order, serialized)
        else:
            final = reorder_and_barrier(circuit, order, serialized)
        final.name = f"{circuit.name}_xtalk"

        return self._record_audit(ScheduledCircuit(
            circuit=final,
            intended_schedule=intended,
            solution=solution,
            candidate_pairs=tuple(pairs),
            option_labels=labels,
            compile_seconds=time.perf_counter() - started,
            fallback_reason=fallback_reason,
            strategy=resolved,
        ))

    # ------------------------------------------------------------------
    # strategy resolution
    # ------------------------------------------------------------------
    def _select_backend(self, model: ScheduleModel):
        """Resolve the strategy knob against the built model.

        Returns ``(resolved_name, backend)`` where ``backend`` is None for
        the monolithic path (the façade's historical exact/greedy
        auto-switch).  ``"auto"`` stays monolithic while the model is
        within the exact-decision limit — identical to the historical
        behavior — and switches to windowed decomposition above it, where
        monolithic would have silently degraded to a pure greedy dive.
        """
        if self.strategy == "monolithic":
            return "monolithic", None
        if self.strategy == "windowed":
            return "windowed", WindowedSolver(cap=self.exact_decision_limit)
        # auto
        if len(model.decisions) <= self.exact_decision_limit:
            return "monolithic", None
        return "windowed", WindowedSolver(cap=self.exact_decision_limit)

    # ------------------------------------------------------------------
    # decision audit
    # ------------------------------------------------------------------
    def _record_audit(self, scheduled: ScheduledCircuit) -> ScheduledCircuit:
        """Record the schedule's decision audit in the telemetry spine.

        Counters ``schedule.pairs_candidate`` / ``schedule.pairs_serialized``
        accumulate serializations warranted vs. taken across every schedule
        of the run, and a ``schedule.audit`` event carries the per-circuit
        counts — the raw material of the scheduler scorecard.
        """
        from repro.obs.events import log_event
        from repro.obs.registry import get_registry

        counts = scheduled.audit()
        registry = get_registry()
        registry.inc("schedule.pairs_candidate", counts["warranted"])
        registry.inc("schedule.pairs_serialized", counts["taken"])
        registry.set(
            "schedule.strategy",
            STRATEGY_CODES.get(scheduled.strategy, -1),
        )
        log_event(
            "schedule.audit", component="xtalk_sched",
            fallback_reason=scheduled.fallback_reason,
            strategy=scheduled.strategy, **counts,
        )
        return scheduled

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def _note_fallback(self, reason: str, pairs: Sequence[CandidatePair]) -> None:
        from repro.obs.events import log_event
        from repro.obs.registry import get_registry

        get_registry().inc("resilience.fallbacks")
        log_event(
            "resilience.fallback", component="xtalk_sched", reason=reason,
            candidate_pairs=len(pairs),
            budget_seconds=self.max_solve_seconds,
        )

    def _par_fallback(self, circuit: QuantumCircuit,
                      pairs: Sequence[CandidatePair], started: float,
                      reason: str,
                      strategy: str = "monolithic") -> ScheduledCircuit:
        """ParSched degradation: submit the circuit unchanged.

        Every candidate pair is labeled ``overlap`` (maximum parallelism
        accepts all conditional rates), the intended schedule is the
        hardware's own right-aligned timing, and the trivial
        :class:`Solution` is marked inexact with zero nodes explored.
        """
        from repro.transpiler.scheduling import hardware_schedule

        final = circuit.copy(name=f"{circuit.name}_xtalk")
        intended = hardware_schedule(final, self.calibration.durations)
        solution = Solution(
            assignment=tuple(2 for _ in pairs),
            times=(),
            objective=float("nan"),
            constant_part=0.0,
            linear_part=0.0,
            nodes_explored=0,
            exact=False,
            interrupt="fallback",
        )
        return ScheduledCircuit(
            circuit=final,
            intended_schedule=intended,
            solution=solution,
            candidate_pairs=tuple(pairs),
            option_labels=tuple(_OVERLAP for _ in pairs),
            compile_seconds=time.perf_counter() - started,
            fallback_reason=reason,
            strategy=strategy,
        )

    # ------------------------------------------------------------------
    def _realize_with_barriers(self, circuit: QuantumCircuit,
                               order: Sequence[int],
                               serialized: Sequence[Tuple[int, int]]) -> QuantumCircuit:
        """Enforce the solved schedule with the fewest barriers that work.

        A barrier for every serialized pair would over-constrain the
        hardware's right-aligned re-schedule (barriers span whole qubit
        sets, so they are much blunter than the solver's difference
        constraints).  Instead, barriers are added iteratively: re-time the
        circuit as the hardware would, and only barrier the serialized
        pairs that still overlap.  Each round adds at least one barrier, so
        the loop terminates within ``len(serialized)`` rounds.
        """
        from repro.transpiler.barriers import reorder_with_barriers
        from repro.transpiler.scheduling import hardware_schedule

        active: set = set()
        durations = self.calibration.durations
        for _ in range(len(serialized) + 1):
            final, positions = reorder_with_barriers(circuit, order, sorted(active))
            hw = hardware_schedule(final, durations)
            violations = [
                (i, j) for (i, j) in serialized
                if (i, j) not in active
                and hw[positions[i]].overlaps(hw[positions[j]])
            ]
            if not violations:
                return final
            active.update(violations)
        return final  # pragma: no cover - loop always converges earlier

    # ------------------------------------------------------------------
    def _assign_variables(self, circuit: QuantumCircuit) -> Tuple[List[int], int, Optional[int]]:
        """One var per instruction; all measures share a single variable."""
        var_of: List[int] = [-1] * len(circuit)
        next_var = 0
        measure_var: Optional[int] = None
        for idx, instr in enumerate(circuit):
            if instr.is_measure:
                if measure_var is None:
                    measure_var = next_var
                    next_var += 1
                var_of[idx] = measure_var
            else:
                var_of[idx] = next_var
                next_var += 1
        return var_of, next_var, measure_var

    def _add_dependency_constraints(self, model: ScheduleModel,
                                    circuit: QuantumCircuit, dag: CircuitDag,
                                    var_of: Sequence[int], durations) -> None:
        for u, v in dag.graph.edges:
            if var_of[u] == var_of[v]:
                continue  # measure-to-measure through the shared variable
            model.add_constraint(
                DiffConstraint.after(var_of[v], var_of[u], durations.of(circuit[u]))
            )

    # ------------------------------------------------------------------
    def _candidate_pairs(self, circuit: QuantumCircuit,
                         dag: CircuitDag) -> List[CandidatePair]:
        """High-crosstalk, DAG-concurrent two-qubit gate pairs.

        At ω = 0 the objective has no gate-error term, so no serialization
        can ever pay off; the model then has no decisions and XtalkSched
        degenerates to ParSched exactly (Table 1's equivalence).
        """
        if self.omega == 0.0:
            return []
        two_q = dag.two_qubit_gate_indices()
        pairs: List[CandidatePair] = []
        for a_pos, i in enumerate(two_q):
            edge_i = normalize_edge(circuit[i].qubits)
            for j in two_q[a_pos + 1:]:
                edge_j = normalize_edge(circuit[j].qubits)
                if edge_i == edge_j:
                    continue
                # Cheap dictionary test first: at device scale most edge
                # pairs are not high-crosstalk, and ``dag.concurrent``
                # walks cached ancestor/descendant sets.
                if not self.report.is_high_pair(edge_i, edge_j):
                    continue
                if not dag.concurrent(i, j):
                    continue
                pairs.append(
                    CandidatePair(
                        gate_i=i,
                        gate_j=j,
                        conditional_i=self.report.conditional_error(edge_i, edge_j),
                        conditional_j=self.report.conditional_error(edge_j, edge_i),
                    )
                )
        return pairs

    def _add_decisions(self, model: ScheduleModel, circuit: QuantumCircuit,
                       pairs: Sequence[CandidatePair], var_of: Sequence[int],
                       durations) -> None:
        for pair in pairs:
            i, j = pair.gate_i, pair.gate_j
            vi, vj = var_of[i], var_of[j]
            di, dj = durations.of(circuit[i]), durations.of(circuit[j])
            if self.isa == "pulse":
                # Pulse-level control allows arbitrary partial overlap;
                # choosing "overlap" just accepts the conditional rate.
                overlap_constraints: Tuple[DiffConstraint, ...] = ()
            else:
                # Circuit-level ISA: overlapping gates must fully contain
                # one another (the shorter inside the longer, eqs. 11-13).
                if di <= dj:
                    short_v, long_v, short_d, long_d = vi, vj, di, dj
                else:
                    short_v, long_v, short_d, long_d = vj, vi, dj, di
                overlap_constraints = (
                    DiffConstraint.after(short_v, long_v, 0.0),
                    DiffConstraint(long_v, short_v, short_d - long_d),
                )
            options = (
                Option(f"g{i}_first", (DiffConstraint.after(vj, vi, di),)),
                Option(f"g{j}_first", (DiffConstraint.after(vi, vj, dj),)),
                Option(_OVERLAP, overlap_constraints),
            )
            model.add_decision(Decision(f"pair_{i}_{j}", options, payload=(i, j)))

    # ------------------------------------------------------------------
    def _add_decoherence_objective(self, model: ScheduleModel,
                                   circuit: QuantumCircuit, dag: CircuitDag,
                                   var_of: Sequence[int], durations) -> None:
        if self.omega >= 1.0:
            return  # pure-crosstalk mode: no decoherence terms
        weight = 1.0 - self.omega
        for q in circuit.active_qubits():
            chain = dag.qubit_chain(q)
            first, last = chain[0], chain[-1]
            t_limit = self.calibration.coherence_limit(q)
            coeff = weight / t_limit
            model.objective_offset += coeff * durations.of(circuit[last])
            if var_of[first] == var_of[last]:
                continue  # single operation: lifetime is a constant
            model.add_objective_term(var_of[last], coeff)
            model.add_objective_term(var_of[first], -coeff)

    # ------------------------------------------------------------------
    def _make_partial_cost(self, circuit: QuantumCircuit,
                           pairs: Sequence[CandidatePair]) -> XtalkPartialCost:
        """Build the :class:`XtalkPartialCost` callable for this circuit."""
        omega = self.omega
        independent: Dict[int, float] = {}
        for pair in pairs:
            for gate in (pair.gate_i, pair.gate_j):
                if gate not in independent:
                    edge = normalize_edge(circuit[gate].qubits)
                    try:
                        independent[gate] = self.report.independent_error(edge)
                    except KeyError:
                        independent[gate] = self.calibration.cnot_error_of(*edge)
        # Constant base over all two-qubit gates not in any candidate pair.
        base = 0.0
        in_pairs = set(independent)
        for idx, instr in enumerate(circuit):
            if instr.is_two_qubit and idx not in in_pairs:
                edge = normalize_edge(instr.qubits)
                try:
                    err = self.report.independent_error(edge)
                except KeyError:
                    err = self.calibration.cnot_error_of(*edge)
                base += math.log(max(err, _MIN_ERROR))
        base *= omega
        return XtalkPartialCost(omega, base, independent, tuple(pairs))
