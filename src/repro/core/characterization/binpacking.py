"""Randomized first-fit bin packing of SRB experiments (Optimization 2).

Gate pairs whose members are all at least ``min_hops`` (2) apart can be
measured in the same parallel experiment without perturbing each other.
The paper packs pairs with a randomized first-fit heuristic: iterate the
pairs, place each into the first compatible bin, open a new bin when none
fits; repeat under random shuffles and keep the fewest-bins packing.

Compatibility depends only on the coupling map and the units, so it is
derived once per call, as one conflict bitmask per unit read off the
map's gate-distance table, and every restart packs from those masks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.topology import CouplingMap, Edge, normalize_edge

Unit = Tuple[Edge, ...]  # one SRB unit: a gate pair (or single gate)


def _conflict_masks(coupling: CouplingMap, units: Sequence[Unit],
                    min_hops: int) -> List[int]:
    """Bit ``j`` of entry ``i`` is set when units ``i`` and ``j`` cannot
    share an experiment: some gate of one is closer than ``min_hops`` to
    some gate of the other (so a unit conflicts with its own repeats)."""
    index, table = coupling.gate_distance_table()
    drives = np.zeros((len(units), len(index)), dtype=bool)
    for u, unit in enumerate(units):
        for gate in unit:
            edge = normalize_edge(gate)
            if edge not in index:
                raise ValueError(f"gate {edge} is not a coupling edge")
            drives[u, index[edge]] = True
    # near[u, e]: some gate of unit u is closer than min_hops to edge e.
    near = drives @ (table < min_hops)
    conflicts = np.packbits(near @ drives.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in conflicts]


def _first_fit(conflicts: Sequence[int],
               order: Iterable[int]) -> List[List[int]]:
    """One first-fit pass over unit indices in ``order``."""
    bins: List[List[int]] = []
    members: List[int] = []  # each bin's units as a bitmask
    for u in order:
        for b, placed in enumerate(members):
            if not conflicts[u] & placed:
                bins[b].append(u)
                members[b] = placed | 1 << u
                break
        else:
            bins.append([u])
            members.append(1 << u)
    return bins


def first_fit(coupling: CouplingMap, units: Sequence[Unit],
              min_hops: int = 2) -> List[List[Unit]]:
    """Single first-fit pass in the given order."""
    return pack_pairs_first_fit(coupling, units, min_hops, restarts=1)


def pack_pairs_first_fit(coupling: CouplingMap, units: Iterable[Unit],
                         min_hops: int = 2, restarts: int = 20,
                         seed: int = 0) -> List[List[Unit]]:
    """Randomized first-fit: best packing over ``restarts`` shuffles.

    Returns a list of bins; each bin is a list of units that one parallel
    experiment can measure simultaneously.  The first pass keeps the given
    order; each later one reshuffles the previous order in place, and the
    first packing with the fewest bins wins.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    units = list(units)
    if not units:
        return []
    conflicts = _conflict_masks(coupling, units, min_hops)
    rng = np.random.default_rng(seed)
    best: Optional[List[List[int]]] = None
    order = list(range(len(units)))
    for attempt in range(restarts):
        if attempt > 0:
            rng.shuffle(order)
        bins = _first_fit(conflicts, order)
        if best is None or len(bins) < len(best):
            best = bins
    return [[units[u] for u in b] for b in best]


def validate_packing(coupling: CouplingMap, bins: Sequence[Sequence[Unit]],
                     min_hops: int = 2) -> bool:
    """Every pair of units within a bin must be mutually compatible."""
    for bin_units in bins:
        for i, a in enumerate(bin_units):
            for b in bin_units[i + 1:]:
                if not coupling.pairs_compatible(a, b, min_hops=min_hops):
                    return False
    return True
