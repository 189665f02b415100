"""Experiment drivers — one module per paper figure/table.

Each driver exposes a ``run_*`` function returning structured rows plus a
``format_table`` renderer; the ``benchmarks/`` harness calls these to
regenerate every figure and table of the paper's evaluation (see the
experiment index in DESIGN.md §4 and the measured results in
EXPERIMENTS.md).
"""

from repro.experiments.common import (
    ExperimentConfig,
    campaign_cache,
    ground_truth_report,
    characterized_report,
    prepare_circuit,
    run_distribution,
    run_distributions,
    swap_error_rate,
)

__all__ = [
    "ExperimentConfig",
    "campaign_cache",
    "ground_truth_report",
    "characterized_report",
    "prepare_circuit",
    "run_distribution",
    "run_distributions",
    "swap_error_rate",
]
