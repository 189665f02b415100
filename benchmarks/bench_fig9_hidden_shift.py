"""Figure 9: Hidden Shift sensitivity to ω with/without redundant CNOTs.

Checks the paper's headline for the crosstalk-susceptible variant: any
ω in [0.2, 0.5] beats ω = 0 on every region, with multi-x best-case gains.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig9_hidden_shift as fig9
from repro.experiments.common import ExperimentConfig


def test_fig9_hidden_shift_omega_sensitivity(benchmark, poughkeepsie,
                                             record_table, record_trace):
    config = ExperimentConfig(seed=15)

    def run():
        return fig9.run_fig9(device=poughkeepsie, config=config)

    with record_trace("fig9_hidden_shift_omega_sensitivity"):
        rows = run_once(benchmark, run)
    record_table("fig9_hidden_shift", fig9.format_table(rows))

    summary = fig9.summarize(rows)
    # redundant variant: mid-range omega beats omega=0 everywhere
    assert summary.redundant_midrange_wins == summary.regions
    # paper: best-case improvements as high as 3x
    assert summary.best_redundant_improvement > 1.5
    # redundant circuits are strictly more error-prone than plain ones
    for region in {r.region for r in rows}:
        plain0 = next(r.error_rate for r in rows
                      if r.region == region and not r.redundant and r.omega == 0.0)
        red0 = next(r.error_rate for r in rows
                    if r.region == region and r.redundant and r.omega == 0.0)
        assert red0 > plain0
