"""Figure 8: QAOA cross entropy vs the crosstalk weight factor ω.

Sweeps ω over [0, 1] for the four crosstalk-prone Poughkeepsie regions and
checks the paper's shape: interior ω beats both endpoints (ParSched at
ω = 0, SerialSched-like at ω = 1) and approaches the crosstalk-free band.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig8_qaoa as fig8
from repro.experiments.common import ExperimentConfig


def test_fig8_qaoa_cross_entropy(benchmark, poughkeepsie, record_table, record_trace):
    config = ExperimentConfig(seed=13)

    def run():
        return fig8.run_fig8(device=poughkeepsie, config=config)

    with record_trace("fig8_qaoa_cross_entropy"):
        result = run_once(benchmark, run)
    record_table("fig8_qaoa", fig8.format_table(result))

    # Figure 8 as an actual figure.
    from benchmarks.conftest import RESULTS_DIR
    from repro.visualize import line_chart_svg

    series = {
        str(region): result.series(region)
        for region in sorted({r.region for r in result.rows})
    }
    svg = line_chart_svg(series,
                         title="QAOA cross entropy vs crosstalk weight",
                         x_label="omega", y_label="cross entropy")
    (RESULTS_DIR / "fig8_qaoa.svg").write_text(svg)

    summary = fig8.summarize(result)
    regions = len({r.region for r in result.rows})
    # interior omega beats both endpoints on most regions
    assert summary.interior_beats_endpoints >= regions - 1
    # paper: geomean 1.8x loss improvement vs ParSched (up to 3.6x)
    assert summary.loss_improvement_vs_par > 1.2
    # theoretical ideal is a lower bound on everything measured
    assert all(r.cross_entropy >= result.theoretical_ideal - 0.05
               for r in result.rows)
