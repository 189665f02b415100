"""Extension: scheduler gap vs planted crosstalk strength.

Sweeps the conditional-error factor of one planted pair on a synthetic
line device.  Below the 3x detection threshold XtalkSched stays maximally
parallel (== ParSched); above it the improvement grows monotonically while
XtalkSched's own error stays flat — quantifying the paper's scaling
argument for software mitigation.
"""

from benchmarks.conftest import run_once
from repro.experiments import sensitivity
from repro.experiments.common import ExperimentConfig


def test_sensitivity_to_crosstalk_strength(benchmark, record_table, record_trace):
    config = ExperimentConfig(seed=23)

    def run():
        return sensitivity.run_sensitivity(config=config)

    with record_trace("sensitivity_to_crosstalk_strength"):
        rows = run_once(benchmark, run)
    record_table("sensitivity", sensitivity.format_table(rows))

    by_factor = {r.factor: r for r in rows}
    # below the 3x classification threshold: no serialization, exact tie
    assert not by_factor[1.5].xtalk_serialized
    assert by_factor[1.5].improvement == 1.0
    # above it: serialized, and the gap grows with the factor
    assert by_factor[12.0].xtalk_serialized
    assert by_factor[12.0].improvement > by_factor[3.0].improvement
    assert by_factor[12.0].improvement > 2.0
    # XtalkSched's error is insensitive to the planted factor once it
    # serializes (it never executes the interfering overlap)
    serialized = [r.xtalk_error for r in rows if r.xtalk_serialized]
    assert max(serialized) - min(serialized) < 0.05
