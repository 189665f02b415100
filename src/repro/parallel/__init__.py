"""Parallel execution engine: process-pool fan-out for independent work.

See :mod:`repro.parallel.engine` for the fan-out machinery and
:mod:`repro.parallel.seeding` for the stable, submission-order-independent
RNG derivation that makes parallel results reproducible.
"""

from repro.parallel.engine import (
    MODE_CODES,
    ParallelEngine,
    WORKERS_ENV,
    resolve_workers,
)
from repro.parallel.seeding import (
    stable_entropy,
    stable_rng,
    stable_seed_sequence,
)

__all__ = [
    "MODE_CODES",
    "ParallelEngine",
    "WORKERS_ENV",
    "resolve_workers",
    "stable_entropy",
    "stable_rng",
    "stable_seed_sequence",
]
