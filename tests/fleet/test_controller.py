"""The fleet controller: epochs, budget, quarantine, resume identity."""

import pytest

from repro.device.presets import simulated_fleet
from repro.fleet import CalibrationEpoch, FleetController
from repro.fleet.soak import CAMPAIGN_SITE
from repro.rb.executor import RBConfig
from repro.resilience import FaultPlan, FleetInterrupted, RetryPolicy

_TINY_RB = RBConfig(lengths=(2, 4, 8), num_sequences=2)


def _fleet(count=3):
    return simulated_fleet(count, qubits=5, seed=0)


def _controller(devices, **kwargs):
    kwargs.setdefault("rb_config", _TINY_RB)
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("retry", RetryPolicy.fast())
    return FleetController(devices, **kwargs)


@pytest.fixture(scope="module")
def clean_run():
    devices = _fleet()
    return devices, _controller(devices).run(4)


class TestPublishing:
    def test_one_epoch_per_device_per_day(self, clean_run):
        devices, outcome = clean_run
        for device in devices:
            days = [e.day for e in outcome.epochs[device.name]]
            assert days == [0, 1, 2, 3]

    def test_opt3_kicks_in_after_first_good_epoch(self, clean_run):
        devices, outcome = clean_run
        for device in devices:
            epochs = outcome.epochs[device.name]
            assert epochs[0].status == "fresh"
            # a HIGH_ONLY refresh re-measures only the known high pairs,
            # so it never costs more than the packed 1-hop campaign...
            assert epochs[1].experiments <= epochs[0].experiments
        # ...and on a device with few high pairs it is strictly cheaper
        assert any(
            outcome.epochs[d.name][1].experiments
            < outcome.epochs[d.name][0].experiments
            for d in devices
        )

    def test_epochs_round_trip_exactly(self, clean_run):
        _devices, outcome = clean_run
        for epochs in outcome.epochs.values():
            for epoch in epochs:
                clone = CalibrationEpoch.from_dict(epoch.to_dict())
                assert clone == epoch
                assert clone.fingerprint() == epoch.fingerprint()

    def test_scorecard_grades_against_planted_truth(self, clean_run):
        devices, outcome = clean_run
        card = outcome.scorecard(devices)
        assert card.metrics["devices"] == len(devices)
        assert card.metrics["recall"] > 0.5
        assert 0.0 <= card.metrics["stable_days_fraction"] <= 1.0

    def test_duplicate_device_names_rejected(self):
        devices = _fleet(2)
        with pytest.raises(ValueError, match="unique"):
            _controller([devices[0], devices[0]])


class TestBudget:
    def test_budget_deferral_carries_instead_of_dropping(self):
        devices = _fleet()
        controller = _controller(devices, daily_budget=1)
        outcome = controller.run(2)
        statuses = {
            name: [e.status for e in epochs]
            for name, epochs in outcome.epochs.items()
        }
        # nobody can afford a packed campaign: every device still
        # publishes, as explicit missing epochs (no prior to carry)
        assert all(set(s) == {"missing"} for s in statuses.values())
        for epochs in outcome.epochs.values():
            assert [e.day for e in epochs] == [0, 1]
            assert all(e.experiments == 0 for e in epochs)

    def test_budget_for_one_device_rotates_by_staleness(self):
        devices = _fleet()
        plan_cost = 30  # enough for one packed campaign per day
        outcome = _controller(devices, daily_budget=plan_cost).run(3)
        measured_days = {
            name: [e.day for e in epochs if e.status == "fresh"]
            for name, epochs in outcome.epochs.items()
        }
        # the staleness priority must spread the budget around: every
        # device gets measured at least once in three days
        assert all(days for days in measured_days.values()), measured_days

    def test_unbudgeted_run_never_defers(self, clean_run):
        _devices, outcome = clean_run
        assert all(
            e.status == "fresh"
            for epochs in outcome.epochs.values() for e in epochs
        )


class TestQuarantine:
    def test_always_failing_device_is_parked_without_stalling_others(self):
        devices = _fleet()
        victim = devices[0].name
        plans = {victim: FaultPlan.single(
            "fatal", rate=1.0, max_failures=10 ** 6, seed=1,
            site=CAMPAIGN_SITE,
        )}
        outcome = _controller(devices, fault_plans=plans).run(5)
        assert victim in outcome.quarantined
        # the victim still publishes every day — missing epochs, since it
        # never produced a good report to carry
        assert [e.day for e in outcome.epochs[victim]] == list(range(5))
        assert all(not e.good for e in outcome.epochs[victim])
        # and the healthy devices are untouched
        for device in devices[1:]:
            assert device.name not in outcome.quarantined
            assert all(e.status == "fresh"
                       for e in outcome.epochs[device.name])

    def test_carried_epoch_marks_coverage_stale(self):
        # days 0-1 succeed, then the device starts failing hard: every
        # later epoch must republish the day-1 report with every entry
        # explicitly stale, not silently pretend freshness
        devices = _fleet()
        victim = devices[0].name
        clean = _controller(devices)
        prior = clean.run(2).epochs[victim][-1]
        assert prior.good

        chaos_controller = _controller(devices, fault_plans={
            victim: FaultPlan.single(
                "fatal", rate=1.0, max_failures=10 ** 6, seed=1,
                site=CAMPAIGN_SITE,
            )
        })
        # seed the new controller's history with the good prior epoch
        chaos_controller._tracks[victim].append(prior)
        chaos = chaos_controller.run(2, start_day=2)
        failed = [e for e in chaos.epochs[victim] if e.day >= 2]
        assert failed and all(not e.good for e in failed)
        for epoch in failed:
            assert epoch.status == "failed"
            summary = epoch.coverage["summary"]
            assert summary["fresh"] == 0
            assert summary["stale"] == summary["total"] > 0
            # every carried value is annotated with the day it was
            # really measured, not the day it was republished
            assert all(
                entry["status"] == "stale"
                and entry["source_day"] == prior.day
                for entry in epoch.coverage["entries"]
            )


class TestResume:
    def test_kill_and_resume_publishes_bitwise_identical_epochs(
        self, tmp_path
    ):
        devices = _fleet()
        plans = {devices[2].name: FaultPlan.single(
            "task_error", rate=0.3, max_failures=1, seed=3,
            site=CAMPAIGN_SITE,
        )}

        def controller(directory, interrupt_after=None):
            return _controller(
                _fleet(), fault_plans=plans,
                checkpoint_dir=str(tmp_path / directory),
                interrupt_after=interrupt_after,
            )

        uninterrupted = controller("clean").run(3)
        with pytest.raises(FleetInterrupted):
            controller("killed", interrupt_after=4).run(3)
        resumed = controller("killed").run(3)
        assert resumed.replays > 0
        assert resumed.published_json() == uninterrupted.published_json()

    def test_double_restart_still_matches(self, tmp_path):
        def controller(interrupt_after=None):
            return _controller(
                _fleet(), checkpoint_dir=str(tmp_path / "ckpt"),
                interrupt_after=interrupt_after,
            )

        baseline = _controller(_fleet()).run(3)
        with pytest.raises(FleetInterrupted):
            controller(interrupt_after=3).run(3)
        with pytest.raises(FleetInterrupted):
            controller(interrupt_after=6).run(3)
        final = controller().run(3)
        assert final.published_json() == baseline.published_json()

    def test_worker_count_does_not_change_published_epochs(self):
        serial = _controller(_fleet(), workers=1).run(2)
        pooled = _controller(_fleet(), workers=2).run(2)
        assert serial.published_json() == pooled.published_json()


class TestSchedulerConsumption:
    def test_published_epoch_feeds_the_scheduler(self, clean_run):
        from repro.circuit.circuit import QuantumCircuit
        from repro.core.scheduling.xtalk import XtalkScheduler

        devices, outcome = clean_run
        device = devices[0]
        epochs = outcome.epochs[device.name]

        circ = QuantumCircuit(device.coupling.num_qubits, 2)
        circ.cx(0, 1)
        circ.cx(2, 3)
        circ.measure(1, 0)
        circ.measure(2, 1)

        # the next day's epoch re-schedules the same circuit — the fleet's
        # steady-state loop
        scheduled = XtalkScheduler(
            device.calibration(), epochs[1].report(), omega=0.5,
        ).schedule(circ)
        assert scheduled.circuit is not None
        assert scheduled.fallback_reason is None
