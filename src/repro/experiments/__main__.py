"""Command-line entry point for the figure drivers.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig6
    python -m repro.experiments fig5 --fast
    python -m repro.experiments all --fast

``--fast`` shrinks endpoint subsets and sweeps for a quick look;
the benchmark harness (``pytest benchmarks/ --benchmark-only``) remains the
canonical way to regenerate the paper's numbers.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    fig1_motivation,
    fig3_characterization,
    fig4_daily_drift,
    fig5_swap_errors,
    fig6_example_schedules,
    fig7_optimality,
    fig8_qaoa,
    fig9_hidden_shift,
    fig10_characterization_cost,
    scalability,
    sensitivity,
)
from repro.rb.executor import RBConfig


def _run_fig3(fast: bool) -> None:
    from repro.device.presets import ibmq_poughkeepsie

    kwargs = {}
    if fast:
        kwargs["devices"] = [ibmq_poughkeepsie()]
        kwargs["rb_config"] = RBConfig(num_sequences=12, shots=1024)
    print(fig3_characterization.format_table(
        fig3_characterization.run_fig3(**kwargs)
    ))


def _run_fig4(fast: bool) -> None:
    kwargs = {"days": 3} if fast else {}
    print(fig4_daily_drift.format_table(fig4_daily_drift.run_fig4(**kwargs)))


def _run_fig5(fast: bool) -> None:
    rows = fig5_swap_errors.run_fig5(max_pairs_per_device=3 if fast else 6)
    print(fig5_swap_errors.format_table(rows))


def _run_fig6(fast: bool) -> None:
    print(fig6_example_schedules.format_report(
        fig6_example_schedules.run_fig6()
    ))


def _run_fig7(fast: bool) -> None:
    rows = fig7_optimality.run_fig7(max_pairs=3 if fast else 6)
    print(fig7_optimality.format_table(rows))


def _run_fig8(fast: bool) -> None:
    kwargs = {}
    if fast:
        kwargs["omegas"] = (0.0, 0.1, 0.35, 1.0)
        kwargs["regions"] = [(5, 10, 11, 12)]
    print(fig8_qaoa.format_table(fig8_qaoa.run_fig8(**kwargs)))


def _run_fig9(fast: bool) -> None:
    kwargs = {}
    if fast:
        kwargs["omegas"] = (0.0, 0.35, 1.0)
        kwargs["regions"] = [(5, 10, 11, 12), (11, 12, 13, 14)]
    print(fig9_hidden_shift.format_table(fig9_hidden_shift.run_fig9(**kwargs)))


def _run_fig10(fast: bool) -> None:
    print(fig10_characterization_cost.format_table(
        fig10_characterization_cost.run_fig10()
    ))


def _run_scalability(fast: bool) -> None:
    instances = ((6, 100), (8, 200), (12, 300)) if fast else \
        scalability.DEFAULT_INSTANCES
    print(scalability.format_table(
        scalability.run_scalability(instances=instances)
    ))


def _run_sensitivity(fast: bool) -> None:
    factors = (1.5, 3.0, 8.0) if fast else sensitivity.DEFAULT_FACTORS
    print(sensitivity.format_table(sensitivity.run_sensitivity(factors)))


def _run_fig1(fast: bool) -> None:
    print(fig1_motivation.format_report(fig1_motivation.run_fig1()))


EXPERIMENTS = {
    "fig1": ("Figure 1: motivating tradeoff example", _run_fig1),
    "fig3": ("Figure 3: crosstalk maps", _run_fig3),
    "fig4": ("Figure 4: daily drift", _run_fig4),
    "fig5": ("Figure 5: SWAP errors + durations", _run_fig5),
    "fig6": ("Figure 6: example schedules", _run_fig6),
    "fig7": ("Figure 7: near-optimality", _run_fig7),
    "fig8": ("Figure 8: QAOA omega sweep", _run_fig8),
    "fig9": ("Figure 9: Hidden Shift omega sweep", _run_fig9),
    "fig10": ("Figure 10: characterization cost", _run_fig10),
    "scalability": ("Section 9.4: compile-time scaling", _run_scalability),
    "sensitivity": ("Extension: gap vs crosstalk strength", _run_sensitivity),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("experiment",
                        choices=[*EXPERIMENTS, "list", "all"],
                        help="which figure to regenerate")
    parser.add_argument("--fast", action="store_true",
                        help="smaller sweeps for a quick look")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:12s} {description}")
        return 0

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in targets:
        description, runner = EXPERIMENTS[name]
        print(f"\n=== {description} ===")
        started = time.perf_counter()
        runner(args.fast)
        print(f"[{name}: {time.perf_counter() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
