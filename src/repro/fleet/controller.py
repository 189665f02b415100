"""The fleet controller: online Opt-3 characterization over many devices.

:class:`FleetController` ticks simulated days over a fleet of drifting
devices, keeping every device's crosstalk report fresh under a global
per-day experiment budget.  Each tick it:

1. **prioritizes** devices by staleness lag (days since the last good
   epoch) and by the drift metrics of their published history
   (``drift_lag_days`` and pair stability from
   :func:`repro.obs.scorecard.drift_scorecard`) — the stalest, least
   stable device measures first;
2. **admits** each device through its
   :class:`~repro.fleet.supervisor.DeviceSupervisor` (quarantine and
   circuit-breaker gates) and the remaining budget;
3. **runs** the campaign — ``ONE_HOP_PACKED`` until a device has a good
   epoch, ``HIGH_ONLY`` refreshes (the paper's Opt 3) afterwards — over
   :mod:`repro.parallel` with the configured retry policy and fault
   plan, in ``degradation="partial"`` mode so unit failures degrade
   coverage instead of aborting;
4. **publishes** exactly one :class:`~repro.fleet.epoch.CalibrationEpoch`
   per device per day, no matter what failed — refused or failed devices
   republish their prior epoch with all-stale coverage
   (:func:`~repro.resilience.degrade.carried_forward_coverage`).

**Checkpoint/resume.**  Every *executed* epoch streams to a fleet-level
:class:`~repro.resilience.checkpoint.JsonlCheckpoint` keyed by the
fleet's content hash.  A resumed controller re-runs the identical
control-loop decisions (admission, priority, budget) but substitutes the
cached epoch for campaign execution — re-charging the virtual clock and
budget from the record — so the published epoch sequence is
bitwise-identical to the uninterrupted run.  Carried/missing epochs are
deterministic recomputations and are not cached.

All timing runs on a :class:`~repro.resilience.clock.VirtualClock`
counting simulated days; campaign execution charges
``experiment_ticks`` days per experiment, so breaker cooldowns and
watchdog timeouts replay exactly.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.characterization.campaign import (
    CharacterizationCampaign,
    CharacterizationPolicy,
)
from repro.core.characterization.report import CrosstalkReport
from repro.device.device import Device
from repro.obs.events import current_run_id, log_event
from repro.obs.registry import get_registry
from repro.obs.scorecard import DriftDay, Scorecard, drift_scorecard
from repro.obs.trace import Trace, span
from repro.parallel.seeding import stable_entropy
from repro.rb.executor import RBConfig
from repro.resilience.checkpoint import JsonlCheckpoint
from repro.resilience.degrade import carried_forward_coverage
from repro.resilience.errors import FleetInterrupted, ResilienceError
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.retry import RetryPolicy

from repro.fleet.epoch import CalibrationEpoch
from repro.fleet.supervisor import DeviceSupervisor


@dataclass
class DeviceTrack:
    """The controller's published history for one device."""

    name: str
    epochs: List[CalibrationEpoch] = field(default_factory=list)

    def append(self, epoch: CalibrationEpoch) -> None:
        self.epochs.append(epoch)

    @property
    def last_good(self) -> Optional[CalibrationEpoch]:
        """The most recent fresh/degraded epoch (the Opt-3 prior)."""
        for epoch in reversed(self.epochs):
            if epoch.good:
                return epoch
        return None

    @property
    def last_good_day(self) -> Optional[int]:
        epoch = self.last_good
        return epoch.day if epoch is not None else None


@dataclass
class FleetOutcome:
    """A finished (or interrupted) fleet run.

    ``epochs`` maps device name → the per-day epoch sequence; exactly
    one epoch per device per completed day (the zero-lost-epochs
    invariant).  ``published_json()`` is the canonical rendering used by
    the kill-and-resume identity tests: two runs are *the same run* iff
    their published JSON matches byte for byte.
    """

    start_day: int
    days: int
    epochs: Dict[str, Tuple[CalibrationEpoch, ...]]
    quarantined: Tuple[str, ...]
    replays: int = 0
    trace: Optional[Trace] = None

    def epoch(self, device: str, day: int) -> CalibrationEpoch:
        """The epoch published for ``device`` on ``day``."""
        for epoch in self.epochs[device]:
            if epoch.day == day:
                return epoch
        raise KeyError(f"no epoch for {device!r} on day {day}")

    def published_json(self) -> str:
        """Canonical JSON of every published epoch (identity checks)."""
        import json

        return json.dumps(
            {name: [e.to_dict() for e in sorted(epochs, key=lambda e: e.day)]
             for name, epochs in self.epochs.items()},
            sort_keys=True,
        )

    def scorecard(self, devices: Sequence[Device],
                  name: str = "fleet") -> Scorecard:
        """Grade the run against each device's hidden planted truth."""
        from repro.obs.scorecard import fleet_scorecard

        device_days = {
            device.name: [
                DriftDay.build(e.day, e.high_pairs(), device.true_high_pairs())
                for e in self.epochs[device.name]
            ]
            for device in devices if device.name in self.epochs
        }
        return fleet_scorecard(
            name, device_days, quarantined=len(self.quarantined),
            run_id=current_run_id(),
        )


class FleetController:
    """Online characterization over a fleet of devices (module docstring).

    Parameters
    ----------
    devices:
        The fleet; device names must be unique.
    rb_config:
        RB sizing shared by every campaign (default :class:`RBConfig`).
    seed:
        Fleet seed; per-device campaign seeds derive from it stably.
    workers:
        Per-campaign parallelism (``None`` → ``REPRO_WORKERS``).
    daily_budget:
        Global experiments available per simulated day (``None`` →
        unbounded).  A device whose planned campaign exceeds the
        remainder is deferred with a carried epoch.
    checkpoint_dir:
        Directory for the fleet checkpoint (``fleet.jsonl``); ``None``
        disables checkpointing.
    retry:
        :class:`RetryPolicy` threaded into every campaign.
    fault_plans:
        Per-device :class:`FaultPlan` (or prebuilt
        :class:`FaultInjector`) keyed by device name — campaign-level
        faults plus ``fleet.stall`` rules.
    interrupt_after:
        Raise :class:`FleetInterrupted` after publishing this many
        epochs (the deterministic kill switch for resume tests).
    """

    CHECKPOINT_FILE = "fleet.jsonl"

    def __init__(self, devices: Sequence[Device], *,
                 rb_config: Optional[RBConfig] = None, seed: int = 0,
                 workers: Optional[int] = None,
                 daily_budget: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 retry: Optional[RetryPolicy] = None,
                 fault_plans: Optional[Mapping[str, Union[FaultPlan,
                                                          FaultInjector]]] = None,
                 experiment_ticks: float = 0.002,
                 stall_timeout: float = 0.5,
                 failure_threshold: int = 2, cooldown: float = 1.5,
                 cooldown_factor: float = 2.0, max_cooldown: float = 6.0,
                 quarantine_after: int = 2,
                 min_fresh_fraction: float = 0.5,
                 interrupt_after: Optional[int] = None,
                 on_mismatch: str = "raise"):
        names = [device.name for device in devices]
        if len(set(names)) != len(names):
            raise ValueError(f"device names must be unique, got {names}")
        from repro.resilience.clock import VirtualClock

        self.devices: Dict[str, Device] = {d.name: d for d in devices}
        self.rb_config = rb_config or RBConfig()
        self.seed = seed
        self.workers = workers
        self.daily_budget = daily_budget
        self.checkpoint_dir = checkpoint_dir
        self.retry = retry
        self.experiment_ticks = float(experiment_ticks)
        self.min_fresh_fraction = float(min_fresh_fraction)
        self.interrupt_after = interrupt_after
        self.on_mismatch = on_mismatch
        self.clock = VirtualClock()
        self.injectors: Dict[str, FaultInjector] = {}
        for name, plan in (fault_plans or {}).items():
            if name not in self.devices:
                raise ValueError(f"fault plan for unknown device {name!r}")
            self.injectors[name] = (
                plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
            )
        self._fault_signature = {
            name: (inj.plan.seed,
                   [astuple(rule) for rule in inj.plan.rules])
            for name, inj in sorted(self.injectors.items())
        }
        self.supervisors: Dict[str, DeviceSupervisor] = {
            name: DeviceSupervisor(
                name, self.clock,
                failure_threshold=failure_threshold, cooldown=cooldown,
                cooldown_factor=cooldown_factor, max_cooldown=max_cooldown,
                stall_timeout=stall_timeout,
                quarantine_after=quarantine_after,
                faults=self.injectors.get(name),
            )
            for name in names
        }
        self._tracks: Dict[str, DeviceTrack] = {
            name: DeviceTrack(name) for name in names
        }
        self._device_seeds = {
            name: stable_entropy("fleet.device.seed", seed, name) % 2 ** 31
            for name in names
        }
        self._names = names
        self._published = 0
        self._replays = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fleet_key(self) -> str:
        """Content hash of everything that determines the published epochs.

        Covers device fingerprints, the fleet seed, RB sizing, budget,
        supervision timing, and the fault plans — so a checkpoint from a
        differently-configured run (different faults, different budget)
        is rejected instead of silently mixed in.
        """
        from repro.pipeline.cache import device_fingerprint

        supervisor = next(iter(self.supervisors.values()))
        payload = {
            "devices": [device_fingerprint(self.devices[n])
                        for n in self._names],
            "seed": self.seed,
            "rb": (type(self.rb_config).__name__, astuple(self.rb_config)),
            "daily_budget": self.daily_budget,
            "experiment_ticks": self.experiment_ticks,
            "min_fresh_fraction": self.min_fresh_fraction,
            "supervision": [
                supervisor.breaker.failure_threshold,
                supervisor.breaker.cooldown,
                supervisor.breaker.cooldown_factor,
                supervisor.breaker.max_cooldown,
                supervisor.watchdog.timeout,
                supervisor.quarantine_after,
            ],
            "faults": self._fault_signature,
        }
        return f"{stable_entropy('fleet.checkpoint', payload):032x}"

    def _open_checkpoint(self) -> Optional[JsonlCheckpoint]:
        if self.checkpoint_dir is None:
            return None
        path = os.path.join(self.checkpoint_dir, self.CHECKPOINT_FILE)
        return JsonlCheckpoint(
            path, campaign_key=self.fleet_key(), run_id=current_run_id(),
            on_mismatch=self.on_mismatch,
        )

    # ------------------------------------------------------------------
    # prioritization
    # ------------------------------------------------------------------
    def _priority_order(self, day: int) -> List[str]:
        """Devices for today, stalest and least stable first.

        Primary key: staleness lag (days since the last good epoch; a
        never-measured device outranks everything).  Secondary keys come
        from :func:`drift_scorecard` over the device's recent good
        epochs — consecutive-epoch churn read as detected-vs-previous —
        so a device whose high-pair set keeps moving is refreshed before
        one that has been stable for a week.  Name breaks ties, keeping
        the order fully deterministic.
        """
        def sort_key(name: str):
            track = self._tracks[name]
            last_good = track.last_good_day
            lag = float(day - last_good) if last_good is not None \
                else float(day) + 1.0
            drift_lag = 0.0
            instability = 0.0
            good = [e for e in track.epochs if e.good][-6:]
            if len(good) >= 2:
                churn = [
                    DriftDay.build(cur.day, cur.high_pairs(),
                                   prev.high_pairs())
                    for prev, cur in zip(good, good[1:])
                ]
                card = drift_scorecard(f"fleet[{name}]", churn)
                drift_lag = card.metrics["drift_lag_days"]
                instability = 1.0 - card.metrics["stable_days_fraction"]
            return (-lag, -drift_lag, -instability, name)

        return sorted(self._names, key=sort_key)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, days: int, start_day: int = 0) -> FleetOutcome:
        """Tick ``days`` simulated days; one epoch per device per day.

        Raises :class:`FleetInterrupted` when ``interrupt_after``
        publishes have happened — everything already published is in the
        checkpoint, and a fresh controller pointed at the same
        ``checkpoint_dir`` resumes bitwise-identically.
        """
        registry = get_registry()
        registry.set("fleet.devices", len(self._names))
        with span("fleet.run") as root:
            checkpoint = self._open_checkpoint()
            log_event(
                "fleet.start", devices=list(self._names), days=days,
                start_day=start_day, budget=self.daily_budget,
                fleet_key=self.fleet_key(),
            )
            for day in range(start_day, start_day + days):
                with span(f"fleet.tick[{day}]") as tick:
                    self.clock.advance_to(float(day))
                    order = self._priority_order(day)
                    remaining = self.daily_budget
                    log_event("fleet.tick", day=day, order=order,
                              budget=remaining)
                    for name in order:
                        remaining = self._run_device(
                            day, name, remaining, checkpoint,
                        )
                    registry.inc("fleet.ticks")
                    tick.counters["fleet.budget_left"] = float(
                        remaining if remaining is not None else -1
                    )
        trace = Trace(root.name, spans=root.children, meta={
            "fleet_key": self.fleet_key(),
            "devices": list(self._names),
            "days": days,
            "start_day": start_day,
        })
        outcome = self._outcome(start_day, days, trace)
        log_event(
            "fleet.end", days=days, published=self._published,
            replays=self._replays, quarantined=list(outcome.quarantined),
        )
        return outcome

    def _outcome(self, start_day: int, days: int,
                 trace: Optional[Trace]) -> FleetOutcome:
        return FleetOutcome(
            start_day=start_day, days=days,
            epochs={name: tuple(track.epochs)
                    for name, track in self._tracks.items()},
            quarantined=tuple(
                name for name in self._names
                if self.supervisors[name].quarantined
            ),
            replays=self._replays,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # one device-day
    # ------------------------------------------------------------------
    def _run_device(self, day: int, name: str, remaining: Optional[int],
                    checkpoint: Optional[JsonlCheckpoint]) -> Optional[int]:
        supervisor = self.supervisors[name]
        track = self._tracks[name]
        prior = track.last_good
        admitted, refusal = supervisor.admit(day)
        cost = 0
        policy = None
        if admitted:
            policy, cost = self._plan_for(name, prior)
            if remaining is not None and cost > remaining:
                supervisor.cancel()
                admitted, refusal = False, "budget"
                get_registry().inc("fleet.deferred")
                log_event("fleet.defer", device=name, day=day,
                          cost=cost, remaining=remaining)
        if not admitted:
            epoch = self._carried_epoch(name, day, refusal, prior)
        else:
            key = f"{name}:day{day}"
            cached = (checkpoint.get(key)
                      if checkpoint is not None and key in checkpoint
                      else None)
            if cached is not None:
                epoch = CalibrationEpoch.from_dict(cached)
                self.clock.advance(epoch.ticks)
                if epoch.good:
                    supervisor.note_success(day)
                else:
                    supervisor.note_failure(day, epoch.reason or "failed")
                self._replays += 1
                get_registry().inc("fleet.replays")
            else:
                epoch = self._execute(name, day, policy, prior, cost)
                if checkpoint is not None:
                    checkpoint.append(key, epoch.to_dict())
            if remaining is not None:
                remaining -= epoch.experiments
        self._publish(name, day, epoch)
        return remaining

    def _plan_for(self, name: str,
                  prior: Optional[CalibrationEpoch]
                  ) -> Tuple[CharacterizationPolicy, int]:
        """Today's policy and its planned experiment cost (both cheap).

        Until a device has a good epoch it needs the full packed 1-hop
        campaign; afterwards the paper's Opt 3 applies — re-measure only
        the known high pairs against the prior report.  A prior whose
        high-pair set is *empty* forces a full re-characterization too:
        a HIGH_ONLY refresh of nothing would publish free "fresh" epochs
        forever while real crosstalk drifted back in unobserved.
        """
        campaign = self._campaign(name)
        policy = CharacterizationPolicy.ONE_HOP_PACKED
        if prior is not None and prior.high_pairs():
            policy = CharacterizationPolicy.HIGH_ONLY
            return policy, campaign.plan(policy,
                                         prior.report()).num_experiments
        return policy, campaign.plan(policy).num_experiments

    def _campaign(self, name: str) -> CharacterizationCampaign:
        return CharacterizationCampaign(
            self.devices[name], rb_config=self.rb_config,
            seed=self._device_seeds[name], workers=self.workers,
        )

    def _execute(self, name: str, day: int,
                 policy: CharacterizationPolicy,
                 prior: Optional[CalibrationEpoch],
                 cost: int) -> CalibrationEpoch:
        """Run today's campaign under supervision and classify the result."""
        supervisor = self.supervisors[name]
        prior_report = prior.report() if prior is not None else None
        # Epoch ticks are the exact charges made here, never a difference
        # of the shared clock: other devices' stalls shift its absolute
        # value, and float rounding of (now + delta) - now would leak
        # that shift into healthy devices' published epochs.
        try:
            supervisor.heartbeat(day)
            outcome = self._campaign(name).run(
                policy, day=day, prior=prior_report,
                retry=self.retry, faults=self.injectors.get(name),
                degradation="partial",
            )
            ticks = outcome.num_experiments * self.experiment_ticks
            self.clock.advance(ticks)
            supervisor.complete()
        except ResilienceError as exc:
            # The campaign never produced a report (a stall, a pool that
            # could not be rebuilt, a checkpoint conflict): the day is a
            # failure and the prior epoch carries forward.
            get_registry().inc("fleet.failures")
            reason = f"{type(exc).__name__}: {exc}"
            supervisor.note_failure(day, reason)
            return self._degraded_epoch(
                name, day, "failed", reason, prior, cost,
                ticks=supervisor.stall_charge,
            )
        coverage = outcome.coverage
        fraction = coverage.fresh_fraction
        if coverage.complete:
            status, reason = "fresh", None
        elif fraction >= self.min_fresh_fraction:
            status, reason = "degraded", f"coverage:{fraction:.3f}"
        else:
            status, reason = "failed", f"coverage:{fraction:.3f}"
        epoch = CalibrationEpoch(
            device=name, day=day, status=status,
            report_json=outcome.report.to_json(),
            coverage=coverage.to_dict(),
            source_day=day, reason=reason,
            ticks=ticks,
            experiments=outcome.num_experiments,
        )
        if epoch.good:
            supervisor.note_success(day)
        else:
            get_registry().inc("fleet.failures")
            supervisor.note_failure(day, reason or "failed")
        return epoch

    # ------------------------------------------------------------------
    # degraded paths (the Opt-3 carry-forward)
    # ------------------------------------------------------------------
    def _carried_epoch(self, name: str, day: int, reason: Optional[str],
                       prior: Optional[CalibrationEpoch]
                       ) -> CalibrationEpoch:
        get_registry().inc("fleet.carried")
        return self._degraded_epoch(name, day, "carried", reason, prior, 0,
                                    ticks=0.0)

    def _degraded_epoch(self, name: str, day: int, status: str,
                        reason: Optional[str],
                        prior: Optional[CalibrationEpoch],
                        cost: int, ticks: float) -> CalibrationEpoch:
        """An epoch that republishes the prior report (or nothing).

        ``status`` is ``"carried"`` for refused devices and ``"failed"``
        for campaigns that died mid-run; either way every carried value
        is annotated stale from its original measurement day, and a
        device with no good history publishes an explicit ``missing``
        epoch with an empty report.
        """
        if prior is None:
            empty = CrosstalkReport(day=day)
            return CalibrationEpoch(
                device=name, day=day, status="missing",
                report_json=empty.to_json(), coverage={},
                source_day=None, reason=reason, ticks=ticks,
                experiments=cost,
            )
        coverage = carried_forward_coverage(prior.report(), prior.source_day)
        return CalibrationEpoch(
            device=name, day=day, status=status,
            report_json=prior.report_json,
            coverage=coverage.to_dict(),
            source_day=prior.source_day, reason=reason,
            ticks=ticks, experiments=cost,
        )

    # ------------------------------------------------------------------
    def _publish(self, name: str, day: int,
                 epoch: CalibrationEpoch) -> None:
        track = self._tracks[name]
        track.append(epoch)
        registry = get_registry()
        registry.inc("fleet.epochs_published")
        registry.set(f"fleet.staleness[{name}]",
                     float(epoch.staleness if epoch.staleness is not None
                           else -1))
        log_event(
            "fleet.epoch.publish", device=name, day=day,
            status=epoch.status, source_day=epoch.source_day,
            reason=epoch.reason,
            high_pairs=len(epoch.high_pairs()),
            coverage=epoch.coverage.get("summary"),
            experiments=epoch.experiments,
            fingerprint=epoch.fingerprint(),
        )
        self._published += 1
        if (self.interrupt_after is not None
                and self._published >= self.interrupt_after):
            raise FleetInterrupted(
                f"fleet controller interrupted after {self._published} "
                f"published epochs (day {day}, device {name!r})"
            )
