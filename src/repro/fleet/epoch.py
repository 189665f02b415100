"""Calibration epochs: what the fleet publishes, one device-day at a time.

A :class:`CalibrationEpoch` is the fleet controller's unit of output —
the crosstalk report a device's consumers (the scheduler, a dashboard)
should use for one simulated day, stamped with *how* it was produced:

* ``fresh`` — today's campaign ran and every planned unit measured;
* ``degraded`` — the campaign ran but some units fell back to stale or
  missing values (coverage says which);
* ``failed`` — the campaign ran (or stalled) and produced mostly dead
  coverage; the report still carries the best available data;
* ``carried`` — the device was not measured (quarantined, breaker open,
  or budget-deferred) and the prior good epoch is republished with
  all-stale coverage — the paper's Opt-3 reuse path, made explicit;
* ``missing`` — nothing to publish at all (no campaign has ever
  succeeded on this device).

Epochs serialize exactly (`to_dict`/`from_dict` round-trip the report's
JSON text verbatim), which is what makes the controller's kill-and-resume
guarantee *bitwise*: a replayed epoch is the cached record, not a
recomputation.  ``ticks`` and ``experiments`` record what the epoch cost
(virtual days and budget units) so a resumed run can re-charge the
virtual clock and the daily budget identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.characterization.report import CrosstalkReport
from repro.parallel.seeding import stable_entropy

#: Schema identifier stamped into every serialized epoch.
EPOCH_SCHEMA = "repro.fleet.epoch/v1"

#: Every status an epoch may carry (see module docstring).
EPOCH_STATUSES = ("fresh", "degraded", "failed", "carried", "missing")

#: Statuses that count as a *successful* device-day for supervision.
GOOD_STATUSES = ("fresh", "degraded")


@dataclass(frozen=True)
class CalibrationEpoch:
    """One published device-day: report, provenance, and cost.

    Attributes:
        device: the device name the epoch belongs to.
        day: the simulated day it was published for.
        status: one of :data:`EPOCH_STATUSES`.
        report_json: the :class:`CrosstalkReport` serialized by its own
            ``to_json`` (kept as text so republishing is byte-identical).
        coverage: a :class:`~repro.resilience.degrade.CampaignCoverage`
            ``to_dict()`` annotating every value's freshness.
        source_day: the day the report's data was (last) measured on —
            equals ``day`` for fresh epochs, lags behind for carried
            ones, ``None`` for missing.
        reason: why the epoch is not fresh (``"quarantined"``,
            ``"breaker_open"``, ``"budget"``, ``"stall"``, ...).
        ticks: virtual days the controller's clock advanced producing
            this epoch (0 for carried/missing).
        experiments: budget units charged (0 for carried/missing).
    """

    device: str
    day: int
    status: str
    report_json: str
    coverage: Dict[str, Any] = field(default_factory=dict)
    source_day: Optional[int] = None
    reason: Optional[str] = None
    ticks: float = 0.0
    experiments: int = 0

    def __post_init__(self):
        if self.status not in EPOCH_STATUSES:
            raise ValueError(
                f"status must be one of {EPOCH_STATUSES}, got {self.status!r}"
            )

    # ------------------------------------------------------------------
    @property
    def good(self) -> bool:
        """True for the statuses that count as a successful device-day."""
        return self.status in GOOD_STATUSES

    def report(self) -> CrosstalkReport:
        """The epoch's crosstalk report (exact: JSON floats round-trip).

        This is what downstream consumers feed to
        :class:`~repro.core.scheduling.xtalk.XtalkScheduler` as its
        ``report=`` input.
        """
        return CrosstalkReport.from_json(self.report_json)

    def high_pairs(self) -> Tuple:
        """The report's high-crosstalk pairs (drift-metric input)."""
        return self.report().high_pairs()

    @property
    def staleness(self) -> Optional[int]:
        """Days between publication and the data's measurement day."""
        if self.source_day is None:
            return None
        return self.day - self.source_day

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The epoch as a ``repro.fleet.epoch/v1`` record (exact)."""
        return {
            "schema": EPOCH_SCHEMA,
            "device": self.device,
            "day": self.day,
            "status": self.status,
            "report": self.report_json,
            "coverage": self.coverage,
            "source_day": self.source_day,
            "reason": self.reason,
            "ticks": self.ticks,
            "experiments": self.experiments,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CalibrationEpoch":
        """Rebuild an epoch from its record form (exact round-trip)."""
        if doc.get("schema") != EPOCH_SCHEMA:
            raise ValueError(
                f"not an epoch record (schema={doc.get('schema')!r})"
            )
        return cls(
            device=doc["device"],
            day=doc["day"],
            status=doc["status"],
            report_json=doc["report"],
            coverage=doc.get("coverage", {}),
            source_day=doc.get("source_day"),
            reason=doc.get("reason"),
            ticks=doc.get("ticks", 0.0),
            experiments=doc.get("experiments", 0),
        )

    def fingerprint(self) -> str:
        """A stable content hash of the full record (identity checks)."""
        return f"{stable_entropy('fleet.epoch', self.to_dict()):032x}"
