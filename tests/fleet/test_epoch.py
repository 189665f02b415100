"""Calibration epochs: the high-pairs memo leaves every identity alone."""

from dataclasses import fields

from repro.core.characterization.report import CrosstalkReport
from repro.fleet import CalibrationEpoch
from repro.fleet.controller import FleetOutcome


def _report():
    report = CrosstalkReport(day=3)
    for edge, rate in (((0, 1), 0.010), ((2, 3), 0.012), ((4, 5), 0.011)):
        report.record_independent(edge, rate)
    report.record_conditional((0, 1), (2, 3), 0.050)  # 5x: a high pair
    report.record_conditional((2, 3), (0, 1), 0.013)
    report.record_conditional((2, 3), (4, 5), 0.014)
    report.record_conditional((4, 5), (2, 3), 0.012)
    return report


def _epoch():
    return CalibrationEpoch(
        device="dev", day=3, status="fresh", report_json=_report().to_json(),
        coverage={"summary": {"fresh": 4}}, source_day=3, ticks=2.0,
        experiments=2,
    )


def _hash_outcome(epoch):
    try:
        return "value", hash(epoch)
    except TypeError as error:
        return "error", str(error)


def _identities(epoch):
    outcome = FleetOutcome(start_day=3, days=1, epochs={"dev": (epoch,)},
                           quarantined=())
    return (epoch.to_dict(), _hash_outcome(epoch), epoch.fingerprint(),
            outcome.published_json())


def test_high_pairs_parse_the_report_once(monkeypatch):
    parse = CrosstalkReport.from_json
    calls = []

    def counted(cls, payload):
        calls.append(payload)
        return parse(payload)

    monkeypatch.setattr(CrosstalkReport, "from_json", classmethod(counted))
    epoch = _epoch()
    for _ in range(3):
        assert epoch.high_pairs() == (frozenset({(0, 1), (2, 3)}),)
    assert len(calls) == 1
    assert epoch.report().to_json() == epoch.report_json


def test_memo_changes_no_identity():
    epoch, untouched = _epoch(), _epoch()
    before = _identities(epoch)
    epoch.high_pairs()
    epoch.report()
    assert _identities(epoch) == before
    assert epoch == untouched
    assert _identities(untouched) == before


def test_memo_keeps_no_parsed_report():
    """Only the high-pairs tuple outlives a call: epochs are kept for a
    whole fleet run, so a retained parse would grow with devices x days."""
    epoch = _epoch()
    epoch.high_pairs()
    epoch.report()
    extra = set(vars(epoch)) - {f.name for f in fields(epoch)}
    assert extra == {"_high_pairs"}
    assert all(isinstance(pair, frozenset) for pair in epoch.high_pairs())


def test_returned_report_is_the_callers_own():
    epoch = _epoch()
    high = epoch.high_pairs()
    mutated = epoch.report()
    mutated.record_conditional((2, 3), (4, 5), 0.5)
    mutated.independent.clear()
    mutated.day = 9
    assert epoch.report().to_json() == _report().to_json()
    assert epoch.high_pairs() == high
    assert epoch.report() is not epoch.report()
