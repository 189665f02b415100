"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper (DESIGN.md §4
maps them).  Benchmarks run their driver exactly once (``pedantic`` with a
single round — the drivers are minutes-scale, not microbenchmarks), print
the reproduced table, and archive it under ``benchmarks/results/`` so the
numbers survive pytest's output capture.
"""

import contextlib
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_table(results_dir):
    def _record(name: str, table: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(table + "\n")
        print(f"\n{table}\n[written to {path}]")

    return _record


@pytest.fixture
def record_trace(results_dir):
    """Run the block inside a :class:`repro.obs.Session` and archive its
    telemetry — span-tree trace, metric deltas, event log, and run
    manifest — next to the benchmark's table::

        with record_trace("fig5") as session:
            rows = run()
            session.results.update(scorecard.series())

    Inspect any of the written files with ``python -m repro.obs report``;
    diff two runs with ``python -m repro.obs diff``.  A test run appends
    nothing to ``results/history.jsonl``: only the standalone benchmark
    scripts (``bench_perf_baseline.py``, ``bench_fleet.py``,
    ``bench_sched_scale.py``) append there.
    """

    @contextlib.contextmanager
    def _record(name: str):
        from repro.obs import Session

        session = Session(name)
        with session:
            yield session
        paths = session.write(str(results_dir))
        print(f"\n[run {session.run_id}: telemetry written to "
              f"{paths['trace']} (+ metrics/manifest/events)]")

    return _record


@pytest.fixture(scope="session")
def devices():
    from repro.device.presets import all_devices

    return all_devices()


@pytest.fixture(scope="session")
def poughkeepsie(devices):
    return devices[0]


def run_once(benchmark, fn):
    """Run a minutes-scale driver exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
