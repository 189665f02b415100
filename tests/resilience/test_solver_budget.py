"""Solver budget exhaustion must degrade to a valid schedule, never raise."""

import math

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.scheduling.xtalk import XtalkScheduler
from repro.device.backend import NoisyBackend
from repro.device.topology import normalize_edge
from repro.obs.events import event_sink
from repro.obs.registry import get_registry


def pair_circuit():
    """Two concurrent CNOTs on the planted pair (5,10)|(11,12)."""
    circ = QuantumCircuit(20, 2)
    circ.cx(5, 10)
    circ.cx(11, 12)
    circ.measure(10, 0)
    circ.measure(11, 1)
    return circ


def busy_circuit():
    """Several concurrent CNOT layers so the solver has real decisions."""
    circ = QuantumCircuit(20, 4)
    circ.cx(5, 10)
    circ.cx(11, 12)
    circ.cx(0, 1)
    circ.cx(16, 17)
    circ.cx(3, 4)
    circ.cx(13, 14)
    for i, q in enumerate((10, 11, 0, 16)):
        circ.measure(q, i)
    return circ


def _assert_valid_schedule(result, device):
    """The degraded circuit must still be executable on hardware."""
    backend = NoisyBackend(device)
    hw = backend.schedule_of(result.circuit)
    assert hw.two_qubit_ops()
    assert result.compile_seconds >= 0


class TestIncumbentFallback:
    def test_exhausted_budget_returns_valid_schedule(
        self, poughkeepsie, pk_report
    ):
        scheduler = XtalkScheduler(
            poughkeepsie.calibration(), pk_report, omega=0.5,
            max_solve_seconds=0.0,
        )
        result = scheduler.schedule(busy_circuit())
        assert result.fallback_reason == "solve_budget:incumbent"
        assert result.solution is not None
        _assert_valid_schedule(result, poughkeepsie)

    def test_fallback_counted_and_logged(self, poughkeepsie, pk_report):
        registry = get_registry()
        before = registry.counter("resilience.fallbacks").snapshot()
        scheduler = XtalkScheduler(
            poughkeepsie.calibration(), pk_report, omega=0.5,
            max_solve_seconds=0.0,
        )
        with event_sink() as sink:
            scheduler.schedule(busy_circuit())
        assert registry.counter("resilience.fallbacks").snapshot() == before + 1
        events = sink.of("resilience.fallback")
        assert len(events) == 1
        assert events[0]["component"] == "xtalk_sched"
        assert events[0]["reason"] == "solve_budget:incumbent"

    def test_generous_budget_means_no_fallback(self, poughkeepsie, pk_report):
        scheduler = XtalkScheduler(
            poughkeepsie.calibration(), pk_report, omega=0.5,
            max_solve_seconds=60.0,
        )
        result = scheduler.schedule(pair_circuit())
        assert result.fallback_reason is None
        assert result.solution.interrupt is None


class TestParFallback:
    def test_par_fallback_leaves_circuit_unserialized(
        self, poughkeepsie, pk_report
    ):
        scheduler = XtalkScheduler(
            poughkeepsie.calibration(), pk_report, omega=0.5,
            max_solve_seconds=0.0, fallback="par",
        )
        result = scheduler.schedule(pair_circuit())
        assert result.fallback_reason == "solve_budget:par"
        assert result.serialized_pairs == ()
        assert all(label == "overlap" for label in result.option_labels)
        assert result.solution.interrupt == "fallback"
        assert math.isnan(result.solution.objective)
        # ParSched semantics: the planted pair still overlaps
        backend = NoisyBackend(poughkeepsie)
        hw = backend.schedule_of(result.circuit)
        ops = {normalize_edge(t.instruction.qubits): t
               for t in hw.two_qubit_ops()}
        assert ops[(5, 10)].overlaps(ops[(11, 12)])

    def test_unknown_fallback_rejected(self, poughkeepsie, pk_report):
        with pytest.raises(ValueError, match="fallback"):
            XtalkScheduler(
                poughkeepsie.calibration(), pk_report, omega=0.5,
                fallback="give_up",
            )


class TestSolverErrorFallback:
    def test_solver_crash_degrades_to_par(
        self, poughkeepsie, pk_report, monkeypatch
    ):
        from repro.smt import solver as solver_module

        def explode(self):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(solver_module.OptimizingSolver, "solve", explode)
        scheduler = XtalkScheduler(
            poughkeepsie.calibration(), pk_report, omega=0.5,
            max_solve_seconds=1.0,
        )
        with event_sink() as sink:
            result = scheduler.schedule(pair_circuit())
        assert result.fallback_reason == "solver_error:RuntimeError"
        assert result.serialized_pairs == ()
        assert sink.of("resilience.fallback")
        _assert_valid_schedule(result, poughkeepsie)
