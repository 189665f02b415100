"""Dependency DAG over circuit instructions.

Nodes are instruction indices into the source circuit.  There is an edge
``i -> j`` when instruction ``j`` consumes a qubit (or classical bit) last
written by instruction ``i``.  Barriers participate as ordinary nodes so that
they impose ordering across every qubit they span — this is exactly how the
paper's post-processing step enforces serialization on IBMQ hardware.

The DAG answers the structural queries the XtalkSched optimizer needs:

* ``ancestors`` / ``descendants`` — to compute ``CanOlp(g)``, the set of
  gates that *can* overlap with ``g`` (Section 7.2),
* ``layers`` — for the maximally parallel baseline scheduler,
* ``qubit_chain`` — the total order of operations on one qubit, which makes
  each qubit's first/last gate well defined for the lifetime constraints.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Instruction


class CircuitDag:
    """Immutable dependency DAG of a :class:`QuantumCircuit`."""

    def __init__(self, circuit: QuantumCircuit):
        self.circuit = circuit
        self.graph = nx.DiGraph()
        self.graph.add_nodes_from(range(len(circuit)))
        self._qubit_chains: Dict[int, List[int]] = {q: [] for q in range(circuit.num_qubits)}

        last_on_qubit: Dict[int, int] = {}
        last_on_clbit: Dict[int, int] = {}
        for idx, instr in enumerate(circuit):
            for q in instr.qubits:
                if q in last_on_qubit:
                    self.graph.add_edge(last_on_qubit[q], idx)
                last_on_qubit[q] = idx
                if not instr.is_barrier:
                    self._qubit_chains[q].append(idx)
            if instr.clbit is not None:
                if instr.clbit in last_on_clbit:
                    self.graph.add_edge(last_on_clbit[instr.clbit], idx)
                last_on_clbit[instr.clbit] = idx

        self._ancestors: Dict[int, FrozenSet[int]] = {}
        self._descendants: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.circuit)

    def instruction(self, idx: int) -> Instruction:
        return self.circuit[idx]

    def predecessors(self, idx: int) -> Tuple[int, ...]:
        return tuple(sorted(self.graph.predecessors(idx)))

    def successors(self, idx: int) -> Tuple[int, ...]:
        return tuple(sorted(self.graph.successors(idx)))

    def ancestors(self, idx: int) -> FrozenSet[int]:
        """All transitive predecessors of ``idx`` (cached)."""
        if idx not in self._ancestors:
            self._ancestors[idx] = frozenset(nx.ancestors(self.graph, idx))
        return self._ancestors[idx]

    def descendants(self, idx: int) -> FrozenSet[int]:
        """All transitive successors of ``idx`` (cached)."""
        if idx not in self._descendants:
            self._descendants[idx] = frozenset(nx.descendants(self.graph, idx))
        return self._descendants[idx]

    def concurrent(self, i: int, j: int) -> bool:
        """True when neither instruction depends on the other.

        Such pairs may be scheduled to overlap in time, which is the
        precondition for crosstalk between them.
        """
        if i == j:
            return False
        return j not in self.ancestors(i) and j not in self.descendants(i)

    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Program order: every edge runs from a lower to a higher index, so
        it is a topological order (the lexicographically smallest one)."""
        return list(range(len(self.circuit)))

    def layers(self) -> List[List[int]]:
        """ASAP dependency layers (directives travel with their level).

        Layer ``k`` contains the instructions whose longest dependency chain
        from any input has length ``k``.  This is the structure ParSched's
        maximal parallelism is derived from.
        """
        level: Dict[int, int] = {}
        for idx in self.topological_order():
            preds = list(self.graph.predecessors(idx))
            level[idx] = 0 if not preds else max(level[p] for p in preds) + 1
        if not level:
            return []
        out: List[List[int]] = [[] for _ in range(max(level.values()) + 1)]
        for idx, lvl in level.items():
            out[lvl].append(idx)
        return [sorted(layer) for layer in out]

    def qubit_chain(self, qubit: int) -> Tuple[int, ...]:
        """Instruction indices touching ``qubit`` in program order (no barriers)."""
        return tuple(self._qubit_chains[qubit])

    def first_gate_on(self, qubit: int) -> int:
        chain = self._qubit_chains[qubit]
        if not chain:
            raise ValueError(f"qubit {qubit} has no gates")
        return chain[0]

    def last_gate_on(self, qubit: int) -> int:
        chain = self._qubit_chains[qubit]
        if not chain:
            raise ValueError(f"qubit {qubit} has no gates")
        return chain[-1]

    # ------------------------------------------------------------------
    def two_qubit_gate_indices(self) -> Tuple[int, ...]:
        return tuple(
            idx for idx, instr in enumerate(self.circuit) if instr.is_two_qubit
        )

    def can_overlap(self, idx: int, candidates: Iterable[int] = None) -> Tuple[int, ...]:
        """``CanOlp(g)`` from Section 7.2, restricted to two-qubit gates.

        Returns every two-qubit gate that is neither an ancestor nor a
        descendant of ``idx``.  Single-qubit gates are excluded because their
        error rates are an order of magnitude below CNOT rates (the paper
        makes the same simplification).
        """
        pool = candidates if candidates is not None else self.two_qubit_gate_indices()
        return tuple(j for j in pool if self.circuit[j].is_two_qubit and self.concurrent(idx, j))

    def validate_order(self, order: Sequence[int]) -> bool:
        """Check that ``order`` is a topological order of all instructions."""
        if sorted(order) != list(range(len(self.circuit))):
            return False
        position = {idx: pos for pos, idx in enumerate(order)}
        return all(position[u] < position[v] for u, v in self.graph.edges)
