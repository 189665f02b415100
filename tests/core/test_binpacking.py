"""Tests for the randomized first-fit experiment packer."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterization.binpacking import (
    first_fit,
    pack_pairs_first_fit,
    validate_packing,
)
from repro.device.presets import ibmq_poughkeepsie
from repro.device.topology import (
    grid_coupling_map,
    heavy_hex_coupling_map,
    line_coupling_map,
)


def _reference_pack(coupling, units, min_hops=2, restarts=20, seed=0):
    """The packer as first written: first fit asks the coupling map's
    compatibility predicate about each placed unit, on every restart."""
    def first_fit_pass(order):
        bins = []
        for unit in order:
            for bin_units in bins:
                if all(coupling.pairs_compatible(unit, placed,
                                                 min_hops=min_hops)
                       for placed in bin_units):
                    bin_units.append(unit)
                    break
            else:
                bins.append([unit])
        return bins

    rng = np.random.default_rng(seed)
    best = None
    order = list(units)
    for attempt in range(restarts):
        if attempt > 0:
            rng.shuffle(order)
        bins = first_fit_pass(order)
        if best is None or len(bins) < len(best):
            best = bins
    return best


_MAPS = {
    "line": lambda: line_coupling_map(12),
    "grid": lambda: grid_coupling_map(3, 4),
    "poughkeepsie": lambda: ibmq_poughkeepsie().coupling,
    "heavy_hex_65": lambda: heavy_hex_coupling_map(5, 11),
}


@lru_cache(maxsize=None)
def _coupling(name):
    return _MAPS[name]()


def _units(coupling, kind, pick):
    """One of the unit lists a campaign packs, drawn from ``pick``."""
    rng = np.random.default_rng(pick)
    pairs = sorted(tuple(sorted(p)) for p in coupling.one_hop_gate_pairs())
    if kind == "edges":
        return [(edge,) for edge in coupling.edges]
    if kind == "one_hop":
        return pairs
    # HIGH_ONLY packs a prior's high pairs, then their gates singly.
    chosen = sorted(pairs[i] for i in rng.choice(
        len(pairs), int(rng.integers(1, len(pairs) + 1)), replace=False))
    if kind == "high_only_pairs":
        return chosen
    if kind == "high_only_edges":
        return [(e,) for e in sorted({e for pair in chosen for e in pair})]
    # kind == "repeated": one unit listed twice
    repeat = chosen[int(rng.integers(len(chosen)))]
    at = int(rng.integers(len(chosen) + 1))
    return chosen[:at] + [repeat] + chosen[at:]


class TestFirstFit:
    def test_compatible_units_share_bin(self):
        line = line_coupling_map(16)
        units = [((0, 1), (2, 3)), ((8, 9), (10, 11))]
        bins = first_fit(line, units)
        assert len(bins) == 1

    def test_incompatible_units_split(self):
        line = line_coupling_map(10)
        units = [((0, 1), (2, 3)), ((4, 5), (6, 7))]
        bins = first_fit(line, units)
        assert len(bins) == 2


class TestPackPairs:
    def test_empty(self):
        line = line_coupling_map(4)
        assert pack_pairs_first_fit(line, []) == []

    def test_restart_validation(self):
        line = line_coupling_map(4)
        with pytest.raises(ValueError):
            pack_pairs_first_fit(line, [((0, 1), (2, 3))], restarts=0)
        with pytest.raises(ValueError, match="restart"):
            pack_pairs_first_fit(line, [], restarts=0)

    def test_non_edge_gate_rejected(self):
        line = line_coupling_map(6)
        with pytest.raises(ValueError, match="coupling edge"):
            pack_pairs_first_fit(line, [((0, 2),)])

    def test_all_units_packed_once(self, poughkeepsie):
        units = [tuple(sorted(p)) for p in poughkeepsie.coupling.one_hop_gate_pairs()]
        bins = pack_pairs_first_fit(poughkeepsie.coupling, units, seed=1)
        packed = [u for b in bins for u in b]
        assert sorted(packed) == sorted(units)

    def test_packing_is_valid(self, poughkeepsie):
        units = [tuple(sorted(p)) for p in poughkeepsie.coupling.one_hop_gate_pairs()]
        bins = pack_pairs_first_fit(poughkeepsie.coupling, units, seed=1)
        assert validate_packing(poughkeepsie.coupling, bins)

    def test_packing_reduces_experiments(self, poughkeepsie):
        """Optimization 2's claim: roughly 2x fewer experiments."""
        units = [tuple(sorted(p)) for p in poughkeepsie.coupling.one_hop_gate_pairs()]
        bins = pack_pairs_first_fit(poughkeepsie.coupling, units, seed=1)
        assert len(bins) <= len(units) / 1.8

    def test_deterministic_for_seed(self, poughkeepsie):
        units = [tuple(sorted(p)) for p in poughkeepsie.coupling.one_hop_gate_pairs()]
        a = pack_pairs_first_fit(poughkeepsie.coupling, units, seed=7)
        b = pack_pairs_first_fit(poughkeepsie.coupling, units, seed=7)
        assert a == b

    def test_single_gate_units_packable(self, poughkeepsie):
        units = [(edge,) for edge in poughkeepsie.coupling.edges]
        bins = pack_pairs_first_fit(poughkeepsie.coupling, units, seed=2)
        assert validate_packing(poughkeepsie.coupling, bins)
        assert len(bins) < len(units)


class TestValidatePacking:
    def test_detects_bad_bin(self):
        line = line_coupling_map(10)
        bad = [[((0, 1), (2, 3)), ((4, 5), (6, 7))]]
        assert not validate_packing(line, bad)

    def test_accepts_good_bins(self):
        line = line_coupling_map(16)
        good = [[((0, 1), (2, 3))], [((4, 5), (6, 7))]]
        assert validate_packing(line, good)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_subsets_always_pack_validly(seed, poughkeepsie):
    rng = np.random.default_rng(seed)
    all_units = [tuple(sorted(p))
                 for p in poughkeepsie.coupling.one_hop_gate_pairs()]
    size = int(rng.integers(1, len(all_units) + 1))
    chosen = [all_units[i] for i in rng.choice(len(all_units), size, replace=False)]
    bins = pack_pairs_first_fit(poughkeepsie.coupling, chosen, restarts=4,
                                seed=seed)
    assert validate_packing(poughkeepsie.coupling, bins)
    packed = sorted(u for b in bins for u in b)
    assert packed == sorted(chosen)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_MAPS)),
       kind=st.sampled_from(["edges", "one_hop", "high_only_pairs",
                             "high_only_edges", "repeated"]),
       min_hops=st.integers(1, 3),
       restarts=st.integers(1, 20),
       seed=st.integers(0, 2 ** 32 - 1),
       pick=st.integers(0, 10_000))
def test_packing_matches_reference(name, kind, min_hops, restarts, seed, pick):
    """Same bins, in the same order, holding the same units in the same
    order as the per-placement predicate loop: the conflict masks change
    how compatibility is looked up, never an RNG draw or a placement."""
    coupling = _coupling(name)
    units = _units(coupling, kind, pick)
    expected = _reference_pack(coupling, units, min_hops, restarts, seed)
    assert pack_pairs_first_fit(coupling, units, min_hops, restarts,
                                seed) == expected
    assert first_fit(coupling, units, min_hops) == _reference_pack(
        coupling, units, min_hops, restarts=1)
