"""Characterization-quality scorecards: is the *physics* still right?

Perf telemetry says how fast a run was; a **scorecard** (schema
``repro.obs.scorecard/v1``) says how *good* it was at the paper's own
job — detecting high-crosstalk pairs (Figure 3), tracking their daily
drift (Figure 4), and serializing them in the scheduler (Section 7).
Every characterization campaign or figure driver can leave one behind,
and because a scorecard flattens into history series
(:meth:`Scorecard.series`), physics regressions gate CI exactly like
perf regressions do.

Three constructors, all taking *plain data* (pair keys as iterables of
edges) so this module imports nothing outside :mod:`repro.obs` and every
layer can call it without cycles:

* :func:`campaign_scorecard` — measured vs hidden-ground-truth
  conditional-error detection: recall/precision over high-crosstalk
  pairs, plus coverage and cost counts;
* :func:`drift_scorecard` — per-day detection across simulated days and
  the **drift-tracking lag** (the longest consecutive streak of days any
  true high pair went undetected);
* :func:`schedule_audit_scorecard` — scheduler-decision audit:
  serializations *taken* vs *warranted* (candidate high-crosstalk pairs
  the solver saw), and fallbacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Schema identifier stamped into every scorecard document.
SCORECARD_SCHEMA = "repro.obs.scorecard/v1"

#: A normalized pair key: the two gate edges, each sorted, then sorted.
PairKey = Tuple[Tuple[int, ...], ...]


def normalize_pair(pair: Iterable[Iterable[int]]) -> PairKey:
    """Canonical form of a gate pair, whatever container it arrives in.

    Accepts frozensets of edge tuples, lists of lists, etc.; returns a
    sorted tuple of sorted edge tuples so set algebra over pairs from
    different layers (reports, devices, JSON) just works.
    """
    return tuple(sorted(tuple(sorted(int(q) for q in edge))
                        for edge in pair))


def normalize_pairs(pairs: Iterable[Iterable[Iterable[int]]]
                    ) -> Tuple[PairKey, ...]:
    """Sorted, de-duplicated canonical forms of many pairs."""
    return tuple(sorted({normalize_pair(p) for p in pairs}))


@dataclass(frozen=True)
class DetectionQuality:
    """Detected-vs-truth confusion counts and the derived rates."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def recall(self) -> float:
        """Fraction of true pairs detected (1.0 when nothing was planted)."""
        planted = self.true_positives + self.false_negatives
        return self.true_positives / planted if planted else 1.0

    @property
    def precision(self) -> float:
        """Fraction of detections that are real (1.0 when none claimed)."""
        claimed = self.true_positives + self.false_positives
        return self.true_positives / claimed if claimed else 1.0

    def to_metrics(self, prefix: str = "") -> Dict[str, float]:
        """The counts and rates as flat series (optionally prefixed)."""
        dot = f"{prefix}." if prefix else ""
        return {
            f"{dot}true_positives": float(self.true_positives),
            f"{dot}false_positives": float(self.false_positives),
            f"{dot}false_negatives": float(self.false_negatives),
            f"{dot}recall": self.recall,
            f"{dot}precision": self.precision,
        }


def detection_quality(detected: Iterable, truth: Iterable) -> DetectionQuality:
    """Compare a detected pair set against the hidden ground truth."""
    detected_set = set(normalize_pairs(detected))
    truth_set = set(normalize_pairs(truth))
    return DetectionQuality(
        true_positives=len(detected_set & truth_set),
        false_positives=len(detected_set - truth_set),
        false_negatives=len(truth_set - detected_set),
    )


@dataclass
class Scorecard:
    """One domain-quality record (see module docstring).

    ``metrics`` is the flat, comparable surface (what history diffs see);
    ``details`` carries the non-numeric evidence (pair lists, per-day
    breakdowns) for humans and debugging.
    """

    kind: str
    name: str
    run_id: Optional[str] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)

    def series(self, prefix: str = "scorecard") -> Dict[str, float]:
        """The metrics as prefixed history series names."""
        dot = f"{prefix}." if prefix else ""
        return {f"{dot}{k}": float(v) for k, v in self.metrics.items()}

    def to_dict(self) -> dict:
        """The scorecard as a ``repro.obs.scorecard/v1`` document."""
        return {
            "schema": SCORECARD_SCHEMA,
            "kind": self.kind,
            "name": self.name,
            "run_id": self.run_id,
            "metrics": dict(self.metrics),
            "details": self.details,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The document as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scorecard":
        """Rebuild a scorecard from its document form (exact round-trip)."""
        if doc.get("schema") != SCORECARD_SCHEMA:
            raise ValueError(
                f"not a scorecard document (schema={doc.get('schema')!r})"
            )
        return cls(
            kind=doc["kind"],
            name=doc["name"],
            run_id=doc.get("run_id"),
            metrics={k: float(v) for k, v in doc.get("metrics", {}).items()},
            details=dict(doc.get("details", {})),
        )

    def format(self) -> str:
        """A one-screen rendering (used by the report CLI)."""
        lines = [f"scorecard [{self.kind}] {self.name!r}"
                 + (f"  (run {self.run_id})" if self.run_id else "")]
        if self.metrics:
            width = max(len(k) for k in self.metrics)
            for key in sorted(self.metrics):
                lines.append(f"  {key:<{width}s}  {self.metrics[key]:>12g}")
        for key in sorted(self.details):
            value = self.details[key]
            if isinstance(value, (list, tuple)) and len(value) > 4:
                lines.append(f"  {key}: [{len(value)} entries]")
            else:
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def campaign_scorecard(name: str, detected_pairs: Iterable,
                       truth_pairs: Iterable, *,
                       run_id: Optional[str] = None,
                       experiments: Optional[int] = None,
                       pairs_measured: Optional[int] = None,
                       stale_units: int = 0, missing_units: int = 0,
                       extra_metrics: Optional[Dict[str, float]] = None,
                       ) -> Scorecard:
    """Score one characterization campaign against hidden ground truth.

    ``detected_pairs`` is what the measured report classified as high
    crosstalk, ``truth_pairs`` the device's planted set (evaluation-only
    data — the compiler never sees it).  Coverage degradation and cost
    counts ride along so quality and cost diff together.
    """
    quality = detection_quality(detected_pairs, truth_pairs)
    metrics = quality.to_metrics()
    if experiments is not None:
        metrics["experiments"] = float(experiments)
    if pairs_measured is not None:
        metrics["pairs_measured"] = float(pairs_measured)
    metrics["coverage.stale"] = float(stale_units)
    metrics["coverage.missing"] = float(missing_units)
    if extra_metrics:
        metrics.update({k: float(v) for k, v in extra_metrics.items()})
    return Scorecard(
        kind="campaign", name=name, run_id=run_id, metrics=metrics,
        details={
            "detected_pairs": [list(map(list, p))
                               for p in normalize_pairs(detected_pairs)],
            "truth_pairs": [list(map(list, p))
                            for p in normalize_pairs(truth_pairs)],
        },
    )


@dataclass(frozen=True)
class DriftDay:
    """One simulated day's detection outcome for the drift scorecard."""

    day: int
    detected_pairs: Tuple[PairKey, ...]
    truth_pairs: Tuple[PairKey, ...]

    @classmethod
    def build(cls, day: int, detected: Iterable,
              truth: Iterable) -> "DriftDay":
        """Normalize raw pair containers into a :class:`DriftDay`."""
        return cls(day=day, detected_pairs=normalize_pairs(detected),
                   truth_pairs=normalize_pairs(truth))


def drift_scorecard(name: str, days: Sequence[DriftDay], *,
                    run_id: Optional[str] = None,
                    extra_metrics: Optional[Dict[str, float]] = None,
                    ) -> Scorecard:
    """Score drift tracking across simulated days (the Figure 4 regime).

    Pooled recall/precision aggregate every (day, pair) decision;
    ``drift_lag_days`` is the longest consecutive streak of days any
    single true pair went undetected (0 = the tracker never lost a pair,
    the paper's stability claim); ``stable_days_fraction`` is the share
    of days whose detected set matched the truth exactly.
    """
    if not days:
        raise ValueError("drift scorecard needs at least one day")
    tp = fp = fn = 0
    stable_days = 0
    miss_streak: Dict[PairKey, int] = {}
    worst_streak = 0
    per_day: List[dict] = []
    for entry in sorted(days, key=lambda d: d.day):
        detected = set(entry.detected_pairs)
        truth = set(entry.truth_pairs)
        tp += len(detected & truth)
        fp += len(detected - truth)
        fn += len(truth - detected)
        if detected == truth:
            stable_days += 1
        for pair in truth:
            if pair in detected:
                miss_streak[pair] = 0
            else:
                miss_streak[pair] = miss_streak.get(pair, 0) + 1
                worst_streak = max(worst_streak, miss_streak[pair])
        per_day.append({
            "day": entry.day,
            "detected": len(detected),
            "truth": len(truth),
            "missed": len(truth - detected),
            "spurious": len(detected - truth),
        })
    quality = DetectionQuality(tp, fp, fn)
    metrics = quality.to_metrics()
    metrics.update({
        "days": float(len(days)),
        "drift_lag_days": float(worst_streak),
        "stable_days_fraction": stable_days / len(days),
    })
    if extra_metrics:
        metrics.update({k: float(v) for k, v in extra_metrics.items()})
    return Scorecard(kind="drift", name=name, run_id=run_id,
                     metrics=metrics, details={"per_day": per_day})


def fleet_scorecard(name: str, device_days: Dict[str, Sequence[DriftDay]],
                    *, quarantined: int = 0,
                    run_id: Optional[str] = None,
                    extra_metrics: Optional[Dict[str, float]] = None,
                    ) -> Scorecard:
    """Aggregate drift-tracking quality across a fleet of devices.

    ``device_days`` maps device name → that device's
    :class:`DriftDay` sequence (the same inputs
    :func:`drift_scorecard` takes for one device).  Pooled
    recall/precision count every (device, day, pair) decision;
    ``drift_lag_days`` is the *worst* per-device lag — one device losing
    a pair for a week is a fleet problem no average should hide — while
    ``stable_days_fraction`` averages across devices.  ``quarantined``
    rides along so history diffs notice when the fleet starts parking
    devices it used to measure.
    """
    graded = {dev: days_ for dev, days_ in device_days.items() if days_}
    if not graded:
        raise ValueError("fleet scorecard needs at least one graded device")
    tp = fp = fn = 0
    worst_lag = 0.0
    stable_sum = 0.0
    per_device: Dict[str, Dict[str, float]] = {}
    for dev in sorted(graded):
        card = drift_scorecard(f"{name}[{dev}]", graded[dev])
        m = card.metrics
        tp += int(m["true_positives"])
        fp += int(m["false_positives"])
        fn += int(m["false_negatives"])
        worst_lag = max(worst_lag, m["drift_lag_days"])
        stable_sum += m["stable_days_fraction"]
        per_device[dev] = {
            key: m[key] for key in (
                "recall", "precision", "drift_lag_days",
                "stable_days_fraction",
            )
        }
    metrics = DetectionQuality(tp, fp, fn).to_metrics()
    metrics.update({
        "devices": float(len(device_days)),
        "quarantined": float(quarantined),
        "drift_lag_days": worst_lag,
        "stable_days_fraction": stable_sum / len(graded),
    })
    if extra_metrics:
        metrics.update({k: float(v) for k, v in extra_metrics.items()})
    return Scorecard(kind="fleet", name=name, run_id=run_id,
                     metrics=metrics, details={"per_device": per_device})


def schedule_audit_scorecard(name: str, *, serializations_taken: int,
                             serializations_warranted: int,
                             fallbacks: int = 0,
                             run_id: Optional[str] = None,
                             strategy: Optional[str] = None,
                             extra_metrics: Optional[Dict[str, float]] = None,
                             ) -> Scorecard:
    """Audit the scheduler's serialization decisions for one workload.

    ``serializations_warranted`` counts the candidate pairs the solver
    was allowed to serialize (DAG-concurrent, high-crosstalk);
    ``serializations_taken`` how many it actually serialized.  The ratio
    is the solver's appetite — a drop to zero on a workload that used to
    serialize is exactly the silent physics regression this exists to
    catch.

    ``strategy`` names how the schedule was produced (``"monolithic"`` or
    ``"windowed"``): decomposed schedules are graded by exactly the same
    taken/warranted arithmetic as monolithic ones, so the strategy rides
    along as detail (and a ``strategy_code`` metric so history diffs see
    strategy flips), never as a different grading rule.
    """
    warranted = max(0, serializations_warranted)
    taken = max(0, serializations_taken)
    metrics = {
        "serializations_taken": float(taken),
        "serializations_warranted": float(warranted),
        "serialization_rate": (taken / warranted) if warranted else 1.0,
        "fallbacks": float(fallbacks),
    }
    details: Dict[str, Any] = {}
    if strategy is not None:
        details["strategy"] = strategy
        codes = {"monolithic": 0.0, "windowed": 1.0}
        if strategy in codes:
            metrics["strategy_code"] = codes[strategy]
    if extra_metrics:
        metrics.update({k: float(v) for k, v in extra_metrics.items()})
    return Scorecard(kind="schedule", name=name, run_id=run_id,
                     metrics=metrics, details=details)


def format_scorecard_report(doc: dict) -> str:
    """Render a ``repro.obs.scorecard/v1`` document (for the report CLI)."""
    return Scorecard.from_dict(doc).format()
