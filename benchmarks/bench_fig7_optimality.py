"""Figure 7: XtalkSched error rates vs the crosstalk-free ideal.

For crosstalk-affected SWAP paths on Poughkeepsie, compares XtalkSched's
tomography error against the average best-schedule error of same-length
crosstalk-free paths — the paper's empirical near-optimality check.
"""

import os

from benchmarks.conftest import run_once
from repro.experiments import fig7_optimality as fig7
from repro.experiments.common import ExperimentConfig

FULL = os.environ.get("REPRO_FULL", "0") == "1"


def test_fig7_near_optimality(benchmark, poughkeepsie, record_table, record_trace):
    config = ExperimentConfig(seed=11)
    max_pairs = None if FULL else 6

    def run():
        return fig7.run_fig7(device=poughkeepsie, config=config,
                             max_pairs=max_pairs,
                             max_ideal_paths_per_length=3)

    with record_trace("fig7_near_optimality"):
        rows = run_once(benchmark, run)
    record_table("fig7_optimality", fig7.format_table(rows))

    in_band = sum(1 for r in rows if r.within_band)
    # Paper: XtalkSched within 1% +- 16% of the crosstalk-free ideal.
    assert in_band >= 0.7 * len(rows)
