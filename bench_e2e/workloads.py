"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the workload seed when constructed
(timed as set-up) and then runs one closed-loop iteration per call to
:meth:`Workload.iteration`.  Iterations derive their campaign, fleet and
execution seeds from the workload seed and the iteration index, so an
iteration never reuses another iteration's memoized RB sequences: only
the reuse inside one campaign is measured, as on a real new day.

Every call into the program that the benchmark counts as an operation
goes through :class:`Ops`; an operation fails when it raises or when its
output check finds a problem.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.characterization.campaign import (
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.core.characterization.cost import PAPER_COST_MODEL
from repro.core.scheduling.xtalk import XtalkScheduler
from repro.device.backend import NoisyBackend
from repro.device.presets import (
    ibm_eagle_127q,
    ibm_hummingbird_65q,
    ibmq_poughkeepsie,
    simulated_fleet,
)
from repro.experiments.common import (
    SCHEDULERS,
    ExperimentConfig,
    distribution_as_dict,
    ground_truth_report,
    prepare_circuit,
    run_distribution,
    tomography_error,
)
from repro.fleet.controller import FleetController
from repro.metrics.distributions import cross_entropy, ideal_cross_entropy
from repro.rb.clifford import clifford_group
from repro.rb.executor import RBConfig
from repro.sim.statevector import ideal_distribution
from repro.workloads.qaoa import QAOA_REGIONS, qaoa_on_region
from repro.workloads.supremacy import supremacy_circuit
from repro.workloads.swap import (
    crosstalk_affected_endpoints,
    crosstalk_route,
    swap_benchmark,
)

from spans import Tracer

#: Worker processes passed to every campaign, backend, tomography and fleet
#: call (the benchmark host has two cores; never more than ``nproc``).
WORKERS = 2


def derive_seed(*parts) -> int:
    """A stable 31-bit seed from the workload seed and a purpose."""
    digest = hashlib.sha256(json.dumps(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class OperationFailed(Exception):
    """An operation raised; the rest of its iteration is skipped."""


class Ops:
    """Attempted and failed operation counts, with failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` as one operation of ``kind``."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as error:
            self.failures.append(f"{kind}: {type(error).__name__}: {error}")
            traceback.print_exc()
            raise OperationFailed(kind) from error

    def check(self, kind: str, problems: Sequence[str]) -> None:
        """Fail an operation already counted when its output check found
        problems."""
        if problems:
            self.failures.append(f"{kind}: {'; '.join(problems)}")

    def count(self, kind: str, problems: Sequence[str]) -> None:
        """Count an operation the program ran on the benchmark's behalf
        (a campaign inside a fleet run) and check its output."""
        self.attempted += 1
        self.check(kind, problems)


@dataclass
class IterationStats:
    """What one iteration produced, beyond its wall time."""

    compile_s: List[float] = field(default_factory=list)
    solutions: list = field(default_factory=list)
    #: Seed-determined quality figures (see ``run.E2E_METRICS``).
    quality: Dict[str, float] = field(default_factory=dict)
    #: XtalkSched ÷ ParSched makespan per SWAP circuit (simulated ns).
    makespan_ratios: List[float] = field(default_factory=list)
    epochs_fresh: int = 0
    epochs_published: int = 0


def _gates(circuit) -> Counter:
    return Counter((i.name, i.qubits, i.params, i.clbit)
                   for i in circuit if not i.is_barrier)


def schedule_problems(circuit, scheduled, allow_interrupt: bool) -> List[str]:
    """Why an XtalkSched result counts as a failed operation, if it does."""
    problems = []
    if scheduled.fallback_reason is not None:
        problems.append(f"fallback {scheduled.fallback_reason}")
    if len(scheduled.solution.assignment) != len(scheduled.candidate_pairs):
        problems.append("a decision was left unassigned")
    if not allow_interrupt and scheduled.solution.interrupt is not None:
        problems.append(f"solve interrupted ({scheduled.solution.interrupt})")
    if _gates(scheduled.circuit) != _gates(circuit):
        problems.append("scheduled circuit does not hold the input's gates")
    return problems


def instrument(tracer: Tracer) -> None:
    """Span the layer calls that happen inside other layers' functions."""
    tracer.instrument(CharacterizationCampaign, "run", "characterization")
    tracer.instrument(NoisyBackend, "run", "backend")
    tracer.instrument(NoisyBackend, "schedule_of", "transpiler")


class Workload:
    """A seeded input set and one closed-loop iteration over it."""

    name = ""
    #: Iterations every run makes even when ``--seconds`` has run out;
    #: peak memory is read right after them.
    min_iterations = 1

    def __init__(self, seed: int, tracer: Tracer, ops: Ops):
        self.seed = seed
        self.tracer = tracer
        self.ops = ops

    def iteration(self, index: int) -> IterationStats:
        raise NotImplementedError

    def checks(self) -> None:
        """Output checks run after the timed loop (failures are counted)."""

    def xtalk(self, circuit, calibration, report, omega: float,
              stats: IterationStats, allow_interrupt: bool = True):
        """Schedule with XtalkSched, recording latency and solver output."""
        scheduler = XtalkScheduler(calibration, report, omega=omega)
        started = time.perf_counter()
        with self.tracer.span("scheduling", "XtalkScheduler.schedule"):
            scheduled = self.ops.run("schedule", scheduler.schedule, circuit)
        stats.compile_s.append(time.perf_counter() - started)
        stats.solutions.append(scheduled.solution)
        self.ops.check("schedule", schedule_problems(
            circuit, scheduled, allow_interrupt))
        return scheduled.circuit


class PaperLoop(Workload):
    """One device-day of the paper on Poughkeepsie (Figure 2's loop)."""

    name = "paper_loop"
    min_iterations = 2
    OMEGAS = (0.0, 0.5, 1.0)

    def __init__(self, seed: int, tracer: Tracer, ops: Ops):
        super().__init__(seed, tracer, ops)
        clifford_group(1)
        clifford_group(2)
        self.device = ibmq_poughkeepsie()
        self.calibration = self.device.calibration(0)
        ansatz_seed = derive_seed(self.name, seed, "qaoa")
        self.qaoa = []
        for region in QAOA_REGIONS:
            circuit = qaoa_on_region(self.device.coupling, region,
                                     seed=ansatz_seed)
            ideal = ideal_distribution(circuit)
            self.qaoa.append((circuit, ideal, ideal_cross_entropy(ideal)))
        self._tomography_case = None

    def iteration(self, index: int) -> IterationStats:
        stats = IterationStats()
        campaign = CharacterizationCampaign(
            self.device, rb_config=RBConfig(),
            seed=derive_seed(self.name, self.seed, index, "campaign"),
            workers=WORKERS,
        )
        outcome = self.ops.run("campaign", campaign.run,
                               CharacterizationPolicy.ONE_HOP_PACKED)
        self.ops.check("campaign", ["degraded coverage"]
                       if outcome.degraded or outcome.failures else [])
        report = outcome.report
        card = outcome.scorecard(self.device).metrics
        stats.quality.update(device_minutes=outcome.machine_minutes,
                             pair_recall=card["recall"],
                             pair_precision=card["precision"])

        backend = NoisyBackend(self.device, workers=WORKERS)
        config = ExperimentConfig(
            seed=derive_seed(self.name, self.seed, index, "execution"),
            workers=WORKERS,
        )
        coupling = self.device.coupling
        high = report.high_pairs()
        errors = {policy: [] for policy in SCHEDULERS}
        makespans = {policy: [] for policy in SCHEDULERS}
        for s, d in crosstalk_affected_endpoints(coupling, high):
            bench = swap_benchmark(coupling, s, d,
                                   path=crosstalk_route(coupling, s, d, high))
            for policy in SCHEDULERS:
                if policy == "XtalkSched":
                    prepared = self.xtalk(bench.circuit, self.calibration,
                                          report, 0.5, stats)
                    if self._tomography_case is None:
                        self._tomography_case = (backend, prepared,
                                                 bench.meeting_pair, config)
                else:
                    with self.tracer.span("scheduling",
                                          f"prepare_circuit[{policy}]"):
                        prepared = self.ops.run(
                            "schedule", prepare_circuit, policy,
                            bench.circuit, self.device, report)
                makespans[policy].append(
                    backend.schedule_of(prepared).makespan())
                with self.tracer.span("metrics", "tomography_error"):
                    errors[policy].append(self.ops.run(
                        "tomography", tomography_error, backend, prepared,
                        bench.meeting_pair, config, workers=WORKERS))
        xtalk = [max(e, 1e-6) for e in errors["XtalkSched"]]
        stats.quality["swap_error_gain_vs_par"] = geomean(
            [e / x for e, x in zip(errors["ParSched"], xtalk)])
        stats.quality["swap_error_gain_vs_serial"] = geomean(
            [e / x for e, x in zip(errors["SerialSched"], xtalk)])
        stats.makespan_ratios = [
            x / p for x, p in zip(makespans["XtalkSched"],
                                  makespans["ParSched"])
        ]

        gains = []
        for circuit, ideal, ideal_ce in self.qaoa:
            ce = {}
            for omega in self.OMEGAS:
                prepared = self.xtalk(circuit, self.calibration, report,
                                      omega, stats)
                with self.tracer.span("metrics", "run_distribution"):
                    probs = self.ops.run("backend run", run_distribution,
                                         backend, prepared, config)
                with self.tracer.span("metrics", "cross_entropy"):
                    ce[omega] = cross_entropy(distribution_as_dict(probs),
                                              ideal)
            # Cross-entropy loss over the noise-free ideal, as Fig 8 sums it.
            gains.append(max(ce[0.0] - ideal_ce, 1e-9)
                         / max(ce[0.5] - ideal_ce, 1e-9))
        stats.quality["qaoa_ce_gain_vs_par"] = geomean(gains)
        stats.quality["schedule_objective"] = sum(
            sol.objective for sol in stats.solutions)
        return stats

    def checks(self) -> None:
        # Pool first: a cold probe sends the campaign to the pool; the serial
        # run then reuses nothing it could not have computed itself.
        reports = []
        for workers in (WORKERS, 1):
            campaign = CharacterizationCampaign(
                self.device, rb_config=RBConfig.fast(),
                seed=derive_seed(self.name, self.seed, "check"),
                workers=workers,
            )
            outcome = self.ops.run("campaign", campaign.run,
                                   CharacterizationPolicy.ONE_HOP_PACKED)
            reports.append(outcome.report.to_json())
        self.ops.check("campaign", [] if reports[0] == reports[1] else [
            f"report differs between workers={WORKERS} and workers=1"])
        if self._tomography_case is None:
            return
        backend, prepared, pair, config = self._tomography_case
        results = [
            self.ops.run("tomography", tomography_error, backend, prepared,
                         pair, config, workers=workers)
            for workers in (WORKERS, 1)
        ]
        self.ops.check("tomography", [] if results[0] == results[1] else [
            f"tomography error differs between workers={WORKERS} and "
            f"workers=1: {results[0]!r} != {results[1]!r}"])


class SchedHeavyHex(Workload):
    """XtalkSched on supremacy circuits at device scale (Sec 9.4)."""

    name = "sched_heavy_hex"
    GATES = 250
    #: (preset, qubits, circuit seed).  The 65q circuits and the second 127q
    #: one resolve windowed (26-33 decisions); the first 127q circuit sits
    #: at ``exact_decision_limit`` (14 decisions) and solves exactly.
    CATALOGUE = (
        ("ibm_hummingbird_65q", 65, 3),
        ("ibm_hummingbird_65q", 65, 5),
        ("ibm_eagle_127q", 127, 0),
        ("ibm_eagle_127q", 127, 5),
    )
    #: The workload seed picks the calibration day the catalogue is
    #: compiled against: new gate errors and crosstalk rates, the same
    #: circuits, hence the same amount of solver work on every seed.
    DAYS = 30

    def __init__(self, seed: int, tracer: Tracer, ops: Ops):
        super().__init__(seed, tracer, ops)
        day = derive_seed(self.name, seed, "day") % self.DAYS
        devices = {"ibm_hummingbird_65q": ibm_hummingbird_65q(),
                   "ibm_eagle_127q": ibm_eagle_127q()}
        inputs = {name: (device.calibration(day),
                         ground_truth_report(device, day))
                  for name, device in devices.items()}
        self.jobs = [
            inputs[name] + (supremacy_circuit(
                devices[name].coupling, qubits=range(qubits),
                num_gates=self.GATES, seed=circuit_seed),)
            for name, qubits, circuit_seed in self.CATALOGUE
        ]

    def iteration(self, index: int) -> IterationStats:
        stats = IterationStats()
        for calibration, report, circuit in self.jobs:
            self.xtalk(circuit, calibration, report, 0.5, stats,
                       allow_interrupt=False)
        stats.quality["schedule_objective"] = sum(
            sol.objective for sol in stats.solutions)
        return stats


class FleetOpt3(Workload):
    """Daily Opt-3 refresh of a drifting fleet (FleetController)."""

    name = "fleet_opt3"
    #: Report a median of at least three iterations even on a short run.
    min_iterations = 3
    DEVICES, QUBITS, DAYS = 6, 8, 10

    def __init__(self, seed: int, tracer: Tracer, ops: Ops):
        super().__init__(seed, tracer, ops)
        clifford_group(1)
        clifford_group(2)
        self.devices = simulated_fleet(
            self.DEVICES, qubits=self.QUBITS,
            seed=derive_seed(self.name, seed, "devices"))
        for device in self.devices:
            for day in range(self.DAYS):
                device.calibration(day)
        self._published: Optional[str] = None

    def controller(self, index: int) -> FleetController:
        return FleetController(
            self.devices, rb_config=RBConfig.fast(),
            seed=derive_seed(self.name, self.seed, index, "fleet"),
            workers=WORKERS,
        )

    def iteration(self, index: int) -> IterationStats:
        stats = IterationStats()
        controller = self.controller(index)
        with self.tracer.span("fleet", "FleetController.run"):
            outcome = self.ops.run("fleet run", controller.run, self.DAYS)
        # With no faults and no budget every device-day runs one campaign.
        epochs = [e for track in outcome.epochs.values() for e in track]
        for epoch in epochs:
            self.ops.count("campaign", [] if epoch.status == "fresh" else [
                f"{epoch.device} day {epoch.day}: {epoch.status} "
                f"({epoch.reason})"])
        stats.epochs_published = len(epochs)
        stats.epochs_fresh = sum(e.status == "fresh" for e in epochs)
        card = outcome.scorecard(self.devices).metrics
        stats.quality.update(
            device_minutes=PAPER_COST_MODEL.minutes(
                sum(e.experiments for e in epochs)),
            pair_recall=card["recall"],
            pair_precision=card["precision"],
            drift_lag_days=card["drift_lag_days"],
        )
        if index == 0:
            self._published = outcome.published_json()
        return stats

    def checks(self) -> None:
        if self._published is None:
            return
        again = self.ops.run("fleet run", self.controller(0).run, self.DAYS)
        self.ops.check("fleet run", [] if again.published_json()
                       == self._published else [
            "two fleet runs at one seed published different epochs"])


WORKLOADS = {cls.name: cls for cls in (PaperLoop, SchedHeavyHex, FleetOpt3)}
