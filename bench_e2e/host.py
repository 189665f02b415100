"""Host speed, sampled while an iteration runs.

The benchmark host is a shared VM whose speed swings: the same
single-threaded loop takes anywhere from 20 ms to 37 ms within a minute,
in CPU time as well as wall time, so the slowdown is in execution speed
(contended cores), not in waiting for a core.  An iteration's wall time
follows that speed, and so does the CPU time of a fixed reference kernel
that shares no code with the program.

:class:`HostSampler` runs the kernel from a ``SIGALRM`` handler every
:data:`INTERVAL_S` seconds while an iteration runs and records its CPU
time, so the samples cover the whole iteration (a few samples taken only
between iterations missed the swings inside them).  The handler runs in
the benchmark's main thread between bytecodes; pool workers inherit no
timer.  Its own wall time is recorded so the caller can take it out of
the iteration.

:data:`REFERENCE_UNIT_SECONDS` is the kernel's CPU time on the reference
host (2-vCPU Intel Xeon VM) in its fast state, so ``work_seconds *
REFERENCE_UNIT_SECONDS / unit_cpu_seconds`` reads as the seconds the
iteration would take on that host at that speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy

#: Seconds between kernel samples (each takes ~1.5 ms: <1% of the time).
INTERVAL_S = 0.2

#: Kernel CPU seconds on the reference host in its fast state.
REFERENCE_UNIT_SECONDS = 0.0012

_MATRIX = numpy.eye(16, dtype=complex) * 0.999 + 0.001j


def reference_unit() -> float:
    """A fixed mix of interpreter-bound Python and small numpy operations,
    the two kinds of work the program spends its time on."""
    total = 0
    for i in range(8_000):
        total += i * i % 7
    vector = numpy.full(16, 0.25, dtype=complex)
    for _ in range(160):
        vector = _MATRIX @ vector
        vector = vector / numpy.linalg.norm(vector)
    return total + float(vector.real[0])


class HostSampler:
    """Samples the kernel's CPU time while the ``with`` block runs."""

    def __init__(self) -> None:
        self.unit_cpu: List[float] = []
        #: Wall seconds the samples took inside the ``with`` block.
        self.own_seconds = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        reference_unit()
        self.unit_cpu.append(time.thread_time() - cpu)
        self.own_seconds += time.perf_counter() - wall

    def __enter__(self) -> "HostSampler":
        # One sample up front, so even a block shorter than the interval
        # has one; its time is not the block's.
        self._sample()
        self.own_seconds = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def unit_cpu_seconds(self) -> float:
        """Mean kernel CPU seconds over the samples."""
        return statistics.fmean(self.unit_cpu)
