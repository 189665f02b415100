"""Figure 1: the motivating example machine and its three schedules.

Checks the qualitative story the paper opens with: the default parallel
schedule suffers crosstalk, naive serialization trades it for decoherence
on the low-coherence qubit, and the desired schedule avoids both.
"""

from benchmarks.conftest import run_once
from repro.experiments import fig1_motivation as fig1
from repro.experiments.common import ExperimentConfig


def test_fig1_tradeoff(benchmark, record_table, record_trace):
    config = ExperimentConfig(seed=3)

    def run():
        return fig1.run_fig1(config=config)

    with record_trace("fig1_tradeoff"):
        result = run_once(benchmark, run)
    record_table("fig1_motivation", fig1.format_report(result))

    parallel = result.errors["(c) parallel"]
    naive = result.errors["(d) naive serial"]
    desired = result.errors["(e) XtalkSched"]
    # the desired schedule beats the crosstalk-suffering default clearly
    assert desired < parallel - 0.01
    # and never does worse than naive serialization
    assert desired <= naive + 0.01
    # the deterministic part of Figure 1e: minimal qubit-2 lifetime
    assert result.qubit2_lifetime["(e) XtalkSched"] <= \
        result.qubit2_lifetime["(d) naive serial"]
    assert result.qubit2_lifetime["(e) XtalkSched"] <= \
        result.qubit2_lifetime["(c) parallel"] + 1e-6
