"""Qubit connectivity graphs and the hop metric between gates.

A *gate* in the crosstalk analysis is an undirected coupling-map edge (the
hardware CNOT resonator).  The paper's locality result — crosstalk is only
significant between gates "separated by 1 hop" — uses the shortest-path
distance between the two edges' nearest endpoints; this module provides that
metric plus the pair-compatibility predicate the bin-packing optimizer needs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

Edge = Tuple[int, int]


def normalize_edge(edge: Sequence[int]) -> Edge:
    """Canonical (sorted) form of an undirected coupling edge."""
    a, b = edge
    if a == b:
        raise ValueError("self-loop edge")
    return (a, b) if a < b else (b, a)


class CouplingMap:
    """Undirected qubit connectivity graph with cached distance queries."""

    def __init__(self, num_qubits: int, edges: Iterable[Sequence[int]]):
        self.num_qubits = num_qubits
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(num_qubits))
        for edge in edges:
            a, b = normalize_edge(edge)
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ValueError(f"edge {edge} out of range")
            self.graph.add_edge(a, b)
        if num_qubits > 1 and not nx.is_connected(self.graph):
            raise ValueError("coupling map must be connected")
        self._dist = dict(nx.all_pairs_shortest_path_length(self.graph))
        # (edge index, gate-distance table), built by gate_distance_table()
        # on first use.
        self._gates: Optional[Tuple[Dict[Edge, int], np.ndarray]] = None

    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All hardware CNOT gates as sorted, canonically ordered edges."""
        return tuple(sorted(normalize_edge(e) for e in self.graph.edges))

    def has_edge(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def neighbors(self, qubit: int) -> Tuple[int, ...]:
        return tuple(sorted(self.graph.neighbors(qubit)))

    def qubit_distance(self, a: int, b: int) -> int:
        return self._dist[a][b]

    def shortest_path(self, a: int, b: int) -> List[int]:
        """A deterministic shortest path (lexicographically smallest)."""
        return min(nx.all_shortest_paths(self.graph, a, b))

    # ------------------------------------------------------------------
    def gate_distance_table(self) -> Tuple[Dict[Edge, int], np.ndarray]:
        """``(index, table)``: the hop distance between every two gates.

        ``index`` maps each coupling edge to its row (the order of
        :attr:`edges`), and ``table[i, j]`` is the :meth:`gate_distance`
        of edges ``i`` and ``j`` (a read-only array).  Built once, on
        first use, and published whole, so a concurrent caller sees
        either no table or all of it.
        """
        gates = self._gates
        if gates is None:
            edges = self.edges
            n = self.num_qubits
            qubit = np.array([[self._dist[u][v] for v in range(n)]
                              for u in range(n)])
            ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
            table = np.minimum.reduce([
                qubit[ends[:, i, None], ends[None, :, j]]
                for i in (0, 1) for j in (0, 1)
            ])
            table.setflags(write=False)
            gates = ({edge: i for i, edge in enumerate(edges)}, table)
            self._gates = gates
        return gates

    def gate_distance(self, gate_a: Sequence[int], gate_b: Sequence[int]) -> int:
        """Hop distance between two hardware gates (coupling edges).

        Distance 0 means the gates share a qubit (they can never run in
        parallel); distance 1 is "1 hop" in the paper's terminology, the
        range at which crosstalk is significant on these devices.
        """
        a = normalize_edge(gate_a)
        b = normalize_edge(gate_b)
        return min(self._dist[u][v] for u in a for v in b)

    def simultaneous_gate_pairs(self) -> Tuple[FrozenSet[Edge], ...]:
        """Every unordered pair of gates that can be driven in parallel.

        These are the pairs that do not share a qubit — the all-pairs SRB
        campaign of Section 4.2 measures each of them (221 pairs on
        Poughkeepsie).
        """
        _, table = self.gate_distance_table()
        return self._edge_pairs(table > 0)

    def one_hop_gate_pairs(self) -> Tuple[FrozenSet[Edge], ...]:
        """Gate pairs at exactly 1 hop — Optimization 1's measurement set."""
        _, table = self.gate_distance_table()
        return self._edge_pairs(table == 1)

    def _edge_pairs(self, mask: np.ndarray) -> Tuple[FrozenSet[Edge], ...]:
        """The unordered edge pairs ``mask`` selects, ordered by first
        edge, then second edge, in the order of :attr:`edges`."""
        edges = self.edges
        rows, cols = np.nonzero(np.triu(mask, 1))
        return tuple(frozenset((edges[i], edges[j]))
                     for i, j in zip(rows.tolist(), cols.tolist()))

    def pairs_compatible(self, pair_a: Iterable[Edge], pair_b: Iterable[Edge],
                         min_hops: int = 2) -> bool:
        """True when two SRB experiments can share one parallel run.

        Every gate of ``pair_a`` must be at least ``min_hops`` from every
        gate of ``pair_b`` (Optimization 2's bin-compatibility rule).
        """
        return all(
            self.gate_distance(ga, gb) >= min_hops
            for ga in pair_a
            for gb in pair_b
        )


def grid_coupling_map(rows: int, cols: int) -> CouplingMap:
    """A full 2D grid — used by tests and synthetic scaling studies."""
    def qid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((qid(r, c), qid(r, c + 1)))
            if r + 1 < rows:
                edges.append((qid(r, c), qid(r + 1, c)))
    return CouplingMap(rows * cols, edges)


def line_coupling_map(num_qubits: int) -> CouplingMap:
    """A 1D chain — the smallest topology exercising SWAP routing."""
    return CouplingMap(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)])


def heavy_hex_coupling_map(rows: int, cols: int,
                           trim_corners: bool = True) -> CouplingMap:
    """IBM's heavy-hexagon lattice (Falcon/Hummingbird/Eagle topologies).

    ``rows`` horizontal chains of ``cols`` qubits each, joined by *bridge*
    qubits: between rows ``r`` and ``r+1`` a bridge sits at every column
    ``c`` with ``c % 4 == 0`` (``r`` even) or ``c % 4 == 2`` (``r`` odd),
    connecting ``(r, c)`` to ``(r+1, c)``.  The alternating phase gives
    the heavy-hex unit cell: every qubit has degree ≤ 3, two-qubit gates
    sit on low-degree vertices, and spectator crosstalk is confined to
    1-hop neighbourhoods — the regime the paper's locality result relies
    on.

    ``trim_corners`` (default, matching IBM's deployed chips) drops the
    first row's last qubit and the last row's first qubit; neither is a
    bridge anchor (the phase pattern avoids those columns), so the lattice
    stays connected.  Qubits are numbered row-major — each row's chain
    left to right, then the bridges below it — so ids are stable and the
    published sizes come out exactly:

    * ``heavy_hex_coupling_map(5, 11)`` → 65 qubits, 72 edges (Hummingbird,
      e.g. ``ibmq_manhattan``);
    * ``heavy_hex_coupling_map(7, 15)`` → 127 qubits, 144 edges (Eagle,
      e.g. ``ibm_washington``).
    """
    if rows < 2:
        raise ValueError("heavy-hex needs at least 2 rows")
    if cols < 3:
        raise ValueError("heavy-hex needs at least 3 columns")
    if trim_corners and rows % 2 == 0:
        raise ValueError(
            "trim_corners requires an odd row count (even-row lattices "
            "anchor a bridge on the trimmed corner)"
        )
    skipped = {(0, cols - 1), (rows - 1, 0)} if trim_corners else set()

    index: Dict[Tuple[str, int, int], int] = {}
    next_id = 0
    for r in range(rows):
        for c in range(cols):
            if (r, c) in skipped:
                continue
            index[("q", r, c)] = next_id
            next_id += 1
        if r + 1 < rows:
            phase = 0 if r % 2 == 0 else 2
            for c in range(phase, cols, 4):
                index[("b", r, c)] = next_id
                next_id += 1

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols - 1):
            if (r, c) in skipped or (r, c + 1) in skipped:
                continue
            edges.append((index[("q", r, c)], index[("q", r, c + 1)]))
        if r + 1 < rows:
            phase = 0 if r % 2 == 0 else 2
            for c in range(phase, cols, 4):
                bridge = index[("b", r, c)]
                edges.append((index[("q", r, c)], bridge))
                edges.append((bridge, index[("q", r + 1, c)]))
    return CouplingMap(next_id, edges)
