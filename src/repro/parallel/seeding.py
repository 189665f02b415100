"""Stable, submission-order-independent seeding for parallel work units.

Fanning work out over processes breaks the historical "one shared RNG
stream" seeding: results would depend on which worker ran first and on the
order tasks were submitted.  Instead, every independent work unit derives
its own :class:`numpy.random.SeedSequence` from a *stable key* — a tuple of
plain values identifying the unit (device fingerprint, calibration day,
campaign seed, target tuple, ...).  Two runs that describe the same work
get the same stream, no matter how many workers execute it or in which
order the units are submitted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def _canonical(value: Any) -> Any:
    """Reduce a key part to a JSON-stable structure.

    Tuples and lists map to lists, sets are sorted, numpy scalars collapse
    to Python scalars; anything else falls back to ``repr`` (stable for the
    value types used in keys: strings, ints, floats, tuples thereof).
    """
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=repr)
    if isinstance(value, dict):
        return sorted(
            ([_canonical(k), _canonical(v)] for k, v in value.items()),
            key=repr,
        )
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def stable_entropy(*parts: Any) -> int:
    """A 128-bit integer deterministically derived from ``parts``.

    The digest is taken over a canonical JSON rendering, so the same key
    produces the same entropy across processes, platforms, and sessions.
    """
    blob = json.dumps(_canonical(list(parts)), sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).digest()
    return int.from_bytes(digest[:16], "big")


def stable_seed_sequence(*parts: Any) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` rooted at the stable key.

    Use :meth:`~numpy.random.SeedSequence.spawn` to derive independent
    child streams (e.g. one per task) whose values do not depend on how
    the tasks are distributed over workers.
    """
    return np.random.SeedSequence(stable_entropy(*parts))


def stable_rng(*parts: Any) -> np.random.Generator:
    """A generator seeded from the stable key (PCG64 via ``default_rng``)."""
    return np.random.default_rng(stable_seed_sequence(*parts))
