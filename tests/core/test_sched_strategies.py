"""Scheduling strategies: windowed parity, determinism, scale.

The acceptance bar for the device-scale refactor:

* on models small enough for exact B&B, windowed schedules land within
  5% of the exact objective (here they match it exactly);
* the windowed strategy is worker-count invariant (``REPRO_WORKERS=1,2,4``)
  and repeat-run stable;
* a supremacy-style circuit on a heavy-hex stress preset schedules to
  completion under a real ``max_solve_seconds`` budget via
  ``strategy="auto"`` with interrupt/fallback reasons recorded — no
  crash, no silent ParSched downgrade.
"""

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.core.scheduling.xtalk import (
    STRATEGIES,
    XtalkScheduler,
)
from repro.device.presets import ibm_hummingbird_65q
from repro.experiments.common import ground_truth_report
from repro.obs.events import event_sink
from repro.workloads.supremacy import supremacy_circuit


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


def schedule_with(poughkeepsie, pk_report, **kwargs):
    scheduler = XtalkScheduler(
        poughkeepsie.calibration(), pk_report, omega=0.5, **kwargs)
    return scheduler.schedule(busy_circuit())


class TestStrategyKnob:
    def test_unknown_strategy_rejected(self, poughkeepsie, pk_report):
        for strategy in ("psychic", "portfolio"):
            with pytest.raises(ValueError, match="strategy"):
                XtalkScheduler(
                    poughkeepsie.calibration(), pk_report, strategy=strategy)

    @pytest.mark.parametrize("strategy",
                             [s for s in STRATEGIES if s != "monolithic"])
    def test_zero_exact_limit_rejected_at_construction(
            self, poughkeepsie, pk_report, strategy):
        with pytest.raises(ValueError,
                           match="exact_decision_limit.*strategy"):
            XtalkScheduler(poughkeepsie.calibration(), pk_report,
                           exact_decision_limit=0, strategy=strategy)

    def test_zero_exact_limit_is_a_monolithic_greedy_dive(
            self, poughkeepsie, pk_report):
        result = schedule_with(poughkeepsie, pk_report,
                               exact_decision_limit=0, strategy="monolithic")
        assert result.strategy == "monolithic"
        assert not result.solution.exact
        assert len(result.option_labels) == len(result.candidate_pairs)

    def test_auto_stays_monolithic_within_limit(self, poughkeepsie, pk_report):
        result = schedule_with(poughkeepsie, pk_report, strategy="auto")
        assert result.strategy == "monolithic"
        assert result.solution.exact

    def test_auto_switches_to_windowed_above_limit(
            self, poughkeepsie, pk_report):
        result = schedule_with(
            poughkeepsie, pk_report, strategy="auto", exact_decision_limit=1)
        assert result.strategy == "windowed"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_produce_valid_schedules(
            self, poughkeepsie, pk_report, strategy):
        result = schedule_with(poughkeepsie, pk_report, strategy=strategy)
        assert result.circuit is not None
        assert len(result.option_labels) == len(result.candidate_pairs)
        assert result.fallback_reason is None

    def test_audit_event_carries_strategy(self, poughkeepsie, pk_report):
        with event_sink() as sink:
            schedule_with(poughkeepsie, pk_report, strategy="windowed")
        events = sink.of("schedule.audit")
        assert events[-1]["strategy"] == "windowed"

    def test_scorecard_grades_windowed_like_monolithic(
            self, poughkeepsie, pk_report):
        mono = schedule_with(poughkeepsie, pk_report, strategy="monolithic")
        win = schedule_with(poughkeepsie, pk_report, strategy="windowed")
        card_m = mono.audit_scorecard().metrics
        card_w = win.audit_scorecard().metrics
        for key in ("serializations_taken", "serializations_warranted",
                    "serialization_rate", "fallbacks"):
            assert card_m[key] == card_w[key]
        assert win.audit_scorecard().details["strategy"] == "windowed"
        assert card_w["strategy_code"] == 1.0


class TestObjectiveParity:
    """Windowed within 5% of exact on small models (abs-scaled: the
    log-error objective is negative)."""

    def test_windowed_matches_exact(self, poughkeepsie, pk_report):
        exact = schedule_with(poughkeepsie, pk_report, strategy="monolithic")
        assert exact.solution.exact
        reference = exact.solution.objective
        result = schedule_with(poughkeepsie, pk_report, strategy="windowed")
        assert abs(result.solution.objective - reference) <= \
            0.05 * abs(reference)

    def test_tiny_windows_still_within_5pct(self, poughkeepsie, pk_report):
        exact = schedule_with(poughkeepsie, pk_report, strategy="monolithic")
        result = schedule_with(
            poughkeepsie, pk_report, strategy="windowed",
            exact_decision_limit=1)
        assert abs(result.solution.objective - exact.solution.objective) <= \
            0.05 * abs(exact.solution.objective)


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["windowed"])
    def test_repeated_runs_bitwise_identical(
            self, poughkeepsie, pk_report, strategy):
        a = schedule_with(poughkeepsie, pk_report, strategy=strategy)
        b = schedule_with(poughkeepsie, pk_report, strategy=strategy)
        assert a.solution.assignment == b.solution.assignment
        assert a.solution.objective == b.solution.objective
        assert a.option_labels == b.option_labels
        assert a.solution.times == b.solution.times

    @pytest.mark.parametrize("workers", ["1", "2", "4"])
    def test_schedules_worker_count_invariant(
            self, poughkeepsie, pk_report, workers, monkeypatch):
        """REPRO_WORKERS must not change the windowed schedule."""
        monkeypatch.setenv("REPRO_WORKERS", workers)
        result = schedule_with(poughkeepsie, pk_report, strategy="windowed")
        pinned = (result.solution.assignment, result.solution.objective,
                  result.option_labels)
        monkeypatch.delenv("REPRO_WORKERS")
        result = schedule_with(poughkeepsie, pk_report, strategy="windowed")
        assert pinned == (result.solution.assignment,
                          result.solution.objective, result.option_labels)


@pytest.fixture(scope="module")
def hummingbird():
    return ibm_hummingbird_65q()


@pytest.fixture(scope="module")
def hummingbird_report(hummingbird):
    return ground_truth_report(hummingbird)


class TestDeviceScale:
    """Heavy-hex stress: completion under budget, reasons recorded."""

    def test_65q_supremacy_auto_under_budget(
            self, hummingbird, hummingbird_report):
        circuit = supremacy_circuit(
            hummingbird.coupling, qubits=range(65), num_gates=150, seed=3)
        scheduler = XtalkScheduler(
            hummingbird.calibration(), hummingbird_report, omega=0.5,
            max_solve_seconds=10.0, strategy="auto")
        result = scheduler.schedule(circuit)
        # Completion, not a crash; auto resolved to a real strategy.
        assert result.strategy in ("monolithic", "windowed")
        assert len(result.option_labels) == len(result.candidate_pairs)
        # Any degradation is recorded, never silent: an interrupted solve
        # must carry the budget fallback reason (and still be realized).
        if result.solution.interrupt == "deadline":
            assert result.fallback_reason == "solve_budget:incumbent"
        else:
            assert result.fallback_reason is None

    def test_65q_zero_budget_degrades_with_reason(
            self, hummingbird, hummingbird_report):
        circuit = supremacy_circuit(
            hummingbird.coupling, qubits=range(65), num_gates=120, seed=5)
        scheduler = XtalkScheduler(
            hummingbird.calibration(), hummingbird_report, omega=0.5,
            max_solve_seconds=0.0, strategy="auto")
        result = scheduler.schedule(circuit)
        assert result.fallback_reason == "solve_budget:incumbent"
        assert result.solution.interrupt == "deadline"
        assert len(result.solution.assignment) == len(result.candidate_pairs)
