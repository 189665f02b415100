"""Tests for coupling maps and the gate-hop metric."""

import sys
import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.presets import ibmq_poughkeepsie
from repro.device.topology import (
    CouplingMap,
    grid_coupling_map,
    heavy_hex_coupling_map,
    line_coupling_map,
    normalize_edge,
)


def _bfs_gate_distances(coupling):
    """Gate distance of every edge pair from one plain BFS per qubit."""
    adjacent = {q: set() for q in range(coupling.num_qubits)}
    for a, b in coupling.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    hops = {}
    for source in adjacent:
        seen = {source: 0}
        queue = deque([source])
        while queue:
            q = queue.popleft()
            for r in adjacent[q] - seen.keys():
                seen[r] = seen[q] + 1
                queue.append(r)
        hops[source] = seen
    return {(e1, e2): min(hops[u][v] for u in e1 for v in e2)
            for e1 in coupling.edges for e2 in coupling.edges}


class TestNormalizeEdge:
    def test_sorts(self):
        assert normalize_edge((3, 1)) == (1, 3)
        assert normalize_edge([1, 3]) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            normalize_edge((2, 2))


class TestCouplingMap:
    def test_line(self):
        line = line_coupling_map(4)
        assert line.edges == ((0, 1), (1, 2), (2, 3))
        assert line.qubit_distance(0, 3) == 3
        assert line.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_grid(self):
        grid = grid_coupling_map(2, 3)
        assert grid.num_qubits == 6
        assert grid.has_edge(0, 3)
        assert grid.qubit_distance(0, 5) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            CouplingMap(4, [(0, 1), (2, 3)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            CouplingMap(2, [(0, 5)])

    def test_neighbors(self):
        line = line_coupling_map(3)
        assert line.neighbors(1) == (0, 2)


class TestGateDistance:
    def test_sharing_qubit_is_zero(self):
        line = line_coupling_map(4)
        assert line.gate_distance((0, 1), (1, 2)) == 0

    def test_adjacent_gates_one_hop(self):
        line = line_coupling_map(4)
        assert line.gate_distance((0, 1), (2, 3)) == 1

    def test_far_gates(self):
        line = line_coupling_map(6)
        assert line.gate_distance((0, 1), (4, 5)) == 3

    def test_symmetric(self):
        line = line_coupling_map(6)
        assert line.gate_distance((0, 1), (3, 4)) == line.gate_distance((3, 4), (0, 1))

    @pytest.mark.parametrize("coupling", [
        line_coupling_map(9), grid_coupling_map(3, 4),
        ibmq_poughkeepsie().coupling, heavy_hex_coupling_map(5, 11),
    ], ids=["line", "grid", "poughkeepsie", "heavy_hex_65"])
    def test_every_edge_pair_matches_bfs(self, coupling):
        index, table = coupling.gate_distance_table()
        assert list(index) == list(coupling.edges)
        assert table.shape == (len(index), len(index))
        for (e1, e2), hops in _bfs_gate_distances(coupling).items():
            assert table[index[e1], index[e2]] == hops
            assert coupling.gate_distance(e1, e2) == hops
            assert coupling.gate_distance(e1[::-1], e2) == hops
            for min_hops in (1, 2, 3):
                assert coupling.pairs_compatible(
                    (e1,), (e2,), min_hops=min_hops) == (hops >= min_hops)

    def test_non_edge_qubit_pairs_use_nearest_qubits(self):
        line = line_coupling_map(8)
        assert line.gate_distance((0, 2), (5, 7)) == 3

    def test_concurrent_first_use_sees_a_whole_table(self):
        """Threads racing to build the table each read complete rows."""
        coupling = heavy_hex_coupling_map(5, 11)
        expected = _bfs_gate_distances(coupling)
        edges = coupling.edges
        errors = []

        def read():
            try:
                for e1 in edges[::7]:
                    index, table = coupling.gate_distance_table()
                    for e2 in edges:
                        if table[index[e1], index[e2]] != expected[e1, e2]:
                            errors.append((e1, e2))
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestPairEnumeration:
    def test_simultaneous_pairs_exclude_shared_qubits(self):
        line = line_coupling_map(4)
        pairs = line.simultaneous_gate_pairs()
        assert frozenset(((0, 1), (2, 3))) in pairs
        assert all(
            len({q for e in pair for q in e}) == 4 for pair in pairs
        )

    def test_one_hop_pairs_subset(self):
        line = line_coupling_map(6)
        one_hop = set(line.one_hop_gate_pairs())
        all_pairs = set(line.simultaneous_gate_pairs())
        assert one_hop <= all_pairs
        assert frozenset(((0, 1), (2, 3))) in one_hop
        assert frozenset(((0, 1), (4, 5))) not in one_hop

    def test_line_pair_count(self):
        # 5 edges on a 6-line; pairs not sharing a qubit:
        line = line_coupling_map(6)
        assert len(line.simultaneous_gate_pairs()) == 6


class TestCompatibility:
    def test_compatible_far_pairs(self):
        line = line_coupling_map(12)
        pair_a = ((0, 1), (2, 3))
        pair_b = ((7, 8), (9, 10))
        assert line.pairs_compatible(pair_a, pair_b, min_hops=2)

    def test_incompatible_close_pairs(self):
        line = line_coupling_map(8)
        pair_a = ((0, 1), (2, 3))
        pair_b = ((4, 5), (6, 7))
        assert not line.pairs_compatible(pair_a, pair_b, min_hops=2)

    def test_single_gate_units(self):
        line = line_coupling_map(8)
        assert line.pairs_compatible(((0, 1),), ((4, 5),), min_hops=2)
        assert not line.pairs_compatible(((0, 1),), ((2, 3),), min_hops=2)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(2, 4), cols=st.integers(2, 4))
def test_grid_distances_match_manhattan(rows, cols):
    grid = grid_coupling_map(rows, cols)
    for a in range(grid.num_qubits):
        for b in range(grid.num_qubits):
            ra, ca = divmod(a, cols)
            rb, cb = divmod(b, cols)
            assert grid.qubit_distance(a, b) == abs(ra - rb) + abs(ca - cb)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 10))
def test_line_gate_distance_formula(n):
    line = line_coupling_map(n)
    edges = line.edges
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1:]:
            expected = max(0, e2[0] - e1[1])
            assert line.gate_distance(e1, e2) == expected
