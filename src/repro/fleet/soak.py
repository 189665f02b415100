"""The fleet chaos soak: run a small fleet through faults and prove it.

This is the acceptance harness CI runs (the ``chaos-soak`` job): a fleet
of :func:`~repro.device.presets.simulated_fleet` devices ticks several
days three times —

1. a **fault-free reference** run,
2. a **chaos** run under deterministic fault injection: one device that
   always fails (every experiment raises ``FatalTaskError``), one flaky
   device with injected ``fleet.stall`` heartbeat stalls, and transient
   task errors / real worker deaths / backend job rejections on the
   healthy majority,
3. a **kill-and-resume** pair: the chaos run again, interrupted after a
   fraction of its publishes (:class:`FleetInterrupted`), then resumed
   from its checkpoint to completion —

and asserts the robustness contract: every device publishes exactly one
epoch per day (zero lost epochs), the always-failing device is
quarantined without stalling the rest, healthy devices' epochs are
bitwise-identical to the fault-free reference (retries fully absorb
their faults), and the resumed run's published epochs are
bitwise-identical to the uninterrupted chaos run.

``python -m repro.fleet.soak`` runs it from the command line and exits
nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.device.presets import simulated_fleet
from repro.obs.scorecard import Scorecard
from repro.parallel.seeding import stable_entropy
from repro.rb.executor import RBConfig
from repro.resilience.errors import FleetInterrupted
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.retry import RetryPolicy

from repro.fleet.controller import FleetController, FleetOutcome
from repro.fleet.supervisor import STALL_SITE

#: Site pattern scoping campaign-level fault rules to engine tasks (and
#: away from the supervisor's stall site).  The engine names its fault
#: site ``characterize[<policy>].task``; a plain ``*`` spans the bracket
#: characters, which :mod:`fnmatch` would otherwise read as a character
#: class.
CAMPAIGN_SITE = "characterize*"


@dataclass
class SoakConfig:
    """Sizing and fault mix for one soak (defaults match the CI job)."""

    devices: int = 6
    days: int = 5
    qubits: int = 6
    seed: int = 0
    workers: Optional[int] = None
    fault_rate: float = 0.22
    stall_rate: float = 0.35
    daily_budget: Optional[int] = None
    interrupt_fraction: float = 0.4
    rb_config: RBConfig = field(
        default_factory=lambda: RBConfig(lengths=(2, 4, 8), num_sequences=2)
    )

    def __post_init__(self):
        if self.devices < 3:
            raise ValueError(
                "soak needs >= 3 devices (always-fail, flaky, healthy)"
            )


@dataclass
class SoakResult:
    """Every check's verdict plus the chaos run's quality evidence."""

    config: SoakConfig
    checks: List[Tuple[str, bool, str]]
    quarantined: Tuple[str, ...]
    injected: Dict[str, int]
    scorecard: Scorecard
    seconds: float
    device_days_per_sec: float

    @property
    def ok(self) -> bool:
        return all(passed for _name, passed, _detail in self.checks)

    def format(self) -> str:
        lines = [
            f"fleet soak: {self.config.devices} devices x "
            f"{self.config.days} days, fault_rate={self.config.fault_rate}",
            f"  {self.device_days_per_sec:.2f} device-days/sec "
            f"({self.seconds:.1f}s)",
            f"  injected: {dict(sorted(self.injected.items()))}",
            f"  quarantined: {list(self.quarantined)}",
        ]
        for name, passed, detail in self.checks:
            mark = "PASS" if passed else "FAIL"
            lines.append(f"  [{mark}] {name}: {detail}")
        return "\n".join(lines)


def soak_fault_plans(config: SoakConfig,
                     names: List[str]) -> Dict[str, FaultPlan]:
    """The deterministic fault mix, keyed per device.

    Device 0 always fails (quarantine target), device 1 is the flaky
    staller, the rest share a transient mix — task errors, worker deaths
    (real ``os._exit`` under a pool), and backend job rejections — whose
    combined rate is ``config.fault_rate``.  Plan seeds derive from the
    soak seed and the device name, so two devices never share a fault
    schedule.
    """
    rate = config.fault_rate
    plans: Dict[str, FaultPlan] = {}
    for index, name in enumerate(names):
        plan_seed = stable_entropy("fleet.soak.faults", config.seed,
                                   name) % 2 ** 31
        if index == 0:
            rules = (FaultRule("fatal", rate=1.0, max_failures=10 ** 6,
                               site=CAMPAIGN_SITE),)
        elif index == 1:
            rules = (
                FaultRule("job_timeout", rate=config.stall_rate,
                          max_failures=1, site=STALL_SITE),
                FaultRule("task_error", rate=rate / 2, max_failures=1,
                          site=CAMPAIGN_SITE),
            )
        else:
            rules = (
                FaultRule("task_error", rate=rate / 2, max_failures=1,
                          site=CAMPAIGN_SITE),
                FaultRule("worker_death", rate=rate / 4, max_failures=1,
                          site=CAMPAIGN_SITE),
                FaultRule("job_rejection", rate=rate / 4, max_failures=1,
                          site=CAMPAIGN_SITE),
            )
        plans[name] = FaultPlan(seed=plan_seed, rules=rules)
    return plans


def _controller(config: SoakConfig, *, fault_plans=None,
                checkpoint_dir=None, interrupt_after=None) -> FleetController:
    """A fresh controller (fresh devices, fresh injectors) for one run."""
    return FleetController(
        simulated_fleet(config.devices, qubits=config.qubits,
                        seed=config.seed),
        rb_config=config.rb_config, seed=config.seed,
        workers=config.workers, daily_budget=config.daily_budget,
        checkpoint_dir=checkpoint_dir, retry=RetryPolicy.fast(),
        fault_plans=fault_plans, interrupt_after=interrupt_after,
    )


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Run reference, chaos, and kill-and-resume; check the contract."""
    config = config or SoakConfig()
    devices = simulated_fleet(config.devices, qubits=config.qubits,
                              seed=config.seed)
    names = [device.name for device in devices]
    always_fail, flaky = names[0], names[1]
    healthy = names[2:]
    plans = soak_fault_plans(config, names)
    checks: List[Tuple[str, bool, str]] = []

    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        reference = _controller(config).run(config.days)

        started = time.perf_counter()
        chaos_controller = _controller(
            config, fault_plans=plans, checkpoint_dir=f"{tmp}/chaos",
        )
        chaos = chaos_controller.run(config.days)
        seconds = time.perf_counter() - started

        total = config.devices * config.days
        cut = max(1, int(total * config.interrupt_fraction))
        interrupted = False
        try:
            _controller(
                config, fault_plans=plans, checkpoint_dir=f"{tmp}/resume",
                interrupt_after=cut,
            ).run(config.days)
        except FleetInterrupted:
            interrupted = True
        resumed = _controller(
            config, fault_plans=plans, checkpoint_dir=f"{tmp}/resume",
        ).run(config.days)

    injected: Dict[str, int] = {}
    for injector in chaos_controller.injectors.values():
        for directive in injector.injected:
            injected[directive.kind] = injected.get(directive.kind, 0) + 1

    checks.append(_check_lost_epochs(chaos, names, config.days))
    checks.append((
        "quarantined_always_fail", always_fail in chaos.quarantined,
        f"{always_fail!r} quarantined={always_fail in chaos.quarantined}",
    ))
    parked_healthy = [n for n in healthy if n in chaos.quarantined]
    checks.append((
        "healthy_not_quarantined", not parked_healthy,
        f"unexpected quarantines: {parked_healthy or 'none'}",
    ))
    checks.append(_check_healthy_identity(chaos, reference, healthy))
    checks.append(_check_convergence(chaos, healthy, flaky))
    checks.append((
        "interrupted_mid_run", interrupted,
        f"interrupt_after={cut} of {total} publishes",
    ))
    checks.append((
        "resume_identity",
        resumed.published_json() == chaos.published_json(),
        f"replays={resumed.replays}",
    ))
    checks.append((
        "worker_death_injected", injected.get("worker_death", 0) > 0,
        f"{injected.get('worker_death', 0)} worker deaths",
    ))
    checks.append((
        "backend_faults_injected",
        injected.get("job_rejection", 0) + injected.get("job_timeout", 0) > 0,
        f"{injected.get('job_rejection', 0)} rejections, "
        f"{injected.get('job_timeout', 0)} timeouts/stalls",
    ))

    return SoakResult(
        config=config, checks=checks, quarantined=chaos.quarantined,
        injected=injected, scorecard=chaos.scorecard(devices),
        seconds=seconds,
        device_days_per_sec=(config.devices * config.days) / seconds,
    )


def _check_lost_epochs(chaos: FleetOutcome, names: List[str],
                       days: int) -> Tuple[str, bool, str]:
    bad = [
        name for name in names
        if [e.day for e in chaos.epochs[name]] != list(range(days))
    ]
    return ("zero_lost_epochs", not bad,
            f"every device published {days} epochs"
            if not bad else f"gaps on {bad}")


def _check_healthy_identity(chaos: FleetOutcome, reference: FleetOutcome,
                            healthy: List[str]) -> Tuple[str, bool, str]:
    diverged = [
        name for name in healthy
        if [e.to_dict() for e in chaos.epochs[name]]
        != [e.to_dict() for e in reference.epochs[name]]
    ]
    return ("healthy_identity", not diverged,
            "retries absorbed every healthy-device fault"
            if not diverged else f"diverged from reference: {diverged}")


def _check_convergence(chaos: FleetOutcome, healthy: List[str],
                       flaky: str) -> Tuple[str, bool, str]:
    stale_healthy = [
        name for name in healthy
        if not all(e.status == "fresh" for e in chaos.epochs[name])
    ]
    flaky_good = sum(1 for e in chaos.epochs[flaky] if e.good)
    ok = not stale_healthy and flaky_good > 0
    return ("convergence", ok,
            f"healthy all fresh={not stale_healthy}, "
            f"flaky good epochs={flaky_good}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=6)
    parser.add_argument("--days", type=int, default=5)
    parser.add_argument("--qubits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--fault-rate", type=float, default=0.22)
    parser.add_argument("--stall-rate", type=float, default=0.35)
    parser.add_argument("--budget", type=int, default=None,
                        help="global experiments per simulated day")
    parser.add_argument("--out", default=None,
                        help="write the result document as JSON")
    args = parser.parse_args(argv)
    config = SoakConfig(
        devices=args.devices, days=args.days, qubits=args.qubits,
        seed=args.seed, workers=args.workers, fault_rate=args.fault_rate,
        stall_rate=args.stall_rate, daily_budget=args.budget,
    )
    result = run_soak(config)
    print(result.format())
    print(result.scorecard.format())
    if args.out:
        document = {
            "checks": [list(check) for check in result.checks],
            "quarantined": list(result.quarantined),
            "injected": result.injected,
            "scorecard": result.scorecard.to_dict(),
            "device_days_per_sec": result.device_days_per_sec,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
