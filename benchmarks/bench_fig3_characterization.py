"""Figure 3: crosstalk characterization maps for the three devices.

Runs the SRB measurement campaign over all 1-hop pairs of each device
(longer-range pairs are crosstalk-free by the paper's own finding and by
construction in the device model) and checks the detected high-crosstalk
pair set against the planted ground truth.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig3_characterization as fig3
from repro.rb.executor import RBConfig


def test_fig3_characterization_maps(benchmark, devices, record_table, record_trace):
    rb_config = RBConfig(shots=1024)  # exact estimator + paper shot noise

    def run():
        return fig3.run_fig3(devices=devices, rb_config=rb_config, seed=3)

    with record_trace("fig3_characterization_maps") as session:
        rows = run_once(benchmark, run)
        scorecard = fig3.fig3_scorecard(rows)
        session.results.update(scorecard.series())
    record_table("fig3_characterization", fig3.format_table(rows))
    print(f"\n{scorecard.format()}")

    # Also render the maps as SVG (Figure 3 as an actual figure).
    from benchmarks.conftest import RESULTS_DIR
    from repro.visualize import device_map_svg

    for device, row in zip(devices, rows):
        svg = device_map_svg(
            device,
            high_pairs=[frozenset(p) for p in row.detected_pairs],
            title=f"{device.name} (measured high-crosstalk pairs)",
        )
        (RESULTS_DIR / f"fig3_map_{device.name}.svg").write_text(svg)

    # Pooled characterization quality across every device.
    assert scorecard.metrics["recall"] >= 0.9
    assert scorecard.metrics["one_hop_exact"] == 1.0

    for row in rows:
        # Every planted pair must be detected (perfect recall), precision
        # must be high, and every detected pair must sit at 1 hop — the
        # three observations of the paper's Figure 3.
        assert row.false_negatives == 0, row.device
        assert row.false_positives <= 2, row.device
        assert row.all_detected_at_one_hop, row.device
        # Degradations reach the paper's order of magnitude (up to 11x).
        assert row.max_degradation > 3.0
