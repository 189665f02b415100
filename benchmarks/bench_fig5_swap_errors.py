"""Figure 5: SWAP-circuit error rates (a-c) and program durations (d).

Each crosstalk-affected endpoint pair is compiled with the three schedulers
and scored by state tomography of the Bell pair the circuit prepares.  The
benchmark covers a subset of endpoint pairs per device by default (the full
66-circuit sweep is minutes-per-device; set REPRO_FULL=1 to run it all).
"""

import os

from benchmarks.conftest import run_once
from repro.experiments import fig5_swap_errors as fig5
from repro.experiments.common import ExperimentConfig

FULL = os.environ.get("REPRO_FULL", "0") == "1"


def test_fig5_swap_errors_and_durations(benchmark, devices, record_table, record_trace):
    config = ExperimentConfig(seed=7)
    max_pairs = None if FULL else 6

    def run():
        return fig5.run_fig5(devices=devices, config=config,
                             max_pairs_per_device=max_pairs)

    with record_trace("fig5_swap_errors_and_durations"):
        rows = run_once(benchmark, run)
    record_table("fig5_swap_errors", fig5.format_table(rows))

    summary = fig5.summarize(rows)
    # Paper: max 5.6x / geomean 2x improvement over ParSched.
    assert summary.max_improvement_over_par > 2.0
    assert summary.geomean_improvement_over_par > 1.3
    # Paper: durations only modestly above ParSched (1.16x mean, 1.7x max).
    assert summary.mean_duration_ratio_vs_par < 1.4
    assert summary.max_duration_ratio_vs_par < 1.8
    # XtalkSched best or tied nearly everywhere.
    assert summary.wins >= 0.7 * summary.total
