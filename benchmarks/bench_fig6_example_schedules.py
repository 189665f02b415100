"""Figure 6: the three schedules for the 0 -> 13 SWAP path on Poughkeepsie.

Reproduces the paper's case study end to end: SerialSched fully serial,
ParSched overlapping the (5,10)|(11,12) crosstalk pair, XtalkSched
serializing exactly that pair and ordering SWAP 11,12 first to protect the
low-coherence qubit 10.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig6_example_schedules as fig6
from repro.experiments.common import ExperimentConfig


def test_fig6_case_study(benchmark, poughkeepsie, record_table, record_trace):
    config = ExperimentConfig(seed=9)

    def run():
        return fig6.run_fig6(device=poughkeepsie, config=config)

    with record_trace("fig6_case_study"):
        result = run_once(benchmark, run)
    record_table("fig6_example_schedules", fig6.format_report(result))

    # Render each schedule as an SVG Gantt chart (Figure 6 as a figure).
    from benchmarks.conftest import RESULTS_DIR
    from repro.visualize import schedule_svg

    for name, schedule in result.schedules.items():
        svg = schedule_svg(schedule, qubits=[0, 5, 10, 11, 12, 13],
                           title=f"SWAP 0->13, {name}")
        (RESULTS_DIR / f"fig6_{name.lower()}.svg").write_text(svg)

    assert result.crosstalk_pair_overlaps["ParSched"]
    assert not result.crosstalk_pair_overlaps["XtalkSched"]
    assert result.swap_5_10_after_11_12
    assert result.errors["XtalkSched"] < result.errors["ParSched"]
    assert result.errors["XtalkSched"] < result.errors["SerialSched"]
    assert result.durations["ParSched"] < result.durations["XtalkSched"] \
        < result.durations["SerialSched"]
