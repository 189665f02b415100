"""Figure 4: daily drift of conditional error rates on IBMQ Poughkeepsie.

Tracks the paper's two named pairs over six days of SRB against the
drifting ground truth and verifies the paper's three observations:
conditional rates dominate independent rates every day, they drift by
multiple x, and the high-pair set stays stable.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig4_daily_drift as fig4
from repro.rb.executor import RBConfig


def test_fig4_daily_drift(benchmark, poughkeepsie, record_table, record_trace):
    rb_config = RBConfig(shots=1024)  # exact estimator + paper shot noise

    def run():
        return fig4.run_fig4(device=poughkeepsie, days=6,
                             rb_config=rb_config, seed=5)

    with record_trace("fig4_daily_drift") as session:
        rows = run_once(benchmark, run)
        scorecard = fig4.fig4_scorecard(rows)
        session.results.update(scorecard.series())
    record_table("fig4_daily_drift", fig4.format_table(rows))
    print(f"\n{scorecard.format()}")

    # Figure 4 as an actual figure.
    from benchmarks.conftest import RESULTS_DIR
    from repro.visualize import line_chart_svg

    series = {}
    for key in rows[0].conditional:
        series[key] = [(r.day, r.conditional[key]) for r in rows]
    for key in rows[0].independent:
        series[key] = [(r.day, r.independent[key]) for r in rows]
    svg = line_chart_svg(series, title="Daily crosstalk drift (Poughkeepsie)",
                         x_label="day", y_label="error rate")
    (RESULTS_DIR / "fig4_daily_drift.svg").write_text(svg)

    # The drift scorecard must recover the planted high pairs nearly
    # every (day, pair) decision — the characterization-quality gate.
    assert scorecard.metrics["recall"] >= 0.9
    assert scorecard.metrics["drift_lag_days"] <= 1.0

    summary = fig4.summarize(rows)
    assert summary.conditional_above_independent_every_day
    # Paper: up to 2x on this machine (3x across devices); measurement
    # noise on top of true drift can push slightly past that.
    assert 1.3 < summary.max_conditional_variation < 6.0
    assert summary.stable_high_pairs
