"""Unit and property tests for the dependency DAG."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.dag import CircuitDag


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int,
                   with_barriers: bool = False) -> QuantumCircuit:
    circ = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(num_gates):
        r = rng.random()
        if with_barriers and r < 0.1:
            size = int(rng.integers(1, num_qubits + 1))
            qubits = rng.choice(num_qubits, size=size, replace=False)
            circ.barrier(*(int(q) for q in qubits))
        elif r < 0.55:
            circ.h(int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circ.cx(int(a), int(b))
    return circ


class TestBasicStructure:
    def test_linear_dependencies(self):
        circ = QuantumCircuit(1).h(0).x(0).z(0)
        dag = CircuitDag(circ)
        assert dag.predecessors(1) == (0,)
        assert dag.successors(1) == (2,)
        assert dag.ancestors(2) == frozenset({0, 1})
        assert dag.descendants(0) == frozenset({1, 2})

    def test_independent_gates(self):
        circ = QuantumCircuit(2).h(0).h(1)
        dag = CircuitDag(circ)
        assert dag.concurrent(0, 1)
        assert not dag.concurrent(0, 0)

    def test_two_qubit_gate_joins_chains(self):
        circ = QuantumCircuit(2).h(0).h(1).cx(0, 1).x(0)
        dag = CircuitDag(circ)
        assert set(dag.predecessors(2)) == {0, 1}
        assert dag.successors(2) == (3,)

    def test_barrier_creates_ordering(self):
        circ = QuantumCircuit(2).h(0).barrier(0, 1).h(1)
        dag = CircuitDag(circ)
        # h(1) depends on the barrier which depends on h(0).
        assert 0 in dag.ancestors(2)

    def test_clbit_dependencies(self):
        circ = QuantumCircuit(2, 1).measure(0, 0).measure(1, 0)
        dag = CircuitDag(circ)
        assert dag.predecessors(1) == (0,)

    def test_layers(self):
        circ = QuantumCircuit(3).h(0).h(1).cx(0, 1).h(2)
        dag = CircuitDag(circ)
        layers = dag.layers()
        assert layers[0] == [0, 1, 3]
        assert layers[1] == [2]

    def test_qubit_chain_excludes_barriers(self):
        circ = QuantumCircuit(2).h(0).barrier().x(0)
        dag = CircuitDag(circ)
        assert dag.qubit_chain(0) == (0, 2)
        assert dag.first_gate_on(0) == 0
        assert dag.last_gate_on(0) == 2

    def test_empty_qubit_chain_raises(self):
        dag = CircuitDag(QuantumCircuit(2).h(0))
        with pytest.raises(ValueError):
            dag.first_gate_on(1)

    def test_can_overlap_excludes_dependents_and_1q(self):
        circ = QuantumCircuit(4).h(0).cx(0, 1).cx(2, 3).cx(1, 2)
        dag = CircuitDag(circ)
        # cx(0,1) may overlap cx(2,3) but not cx(1,2) (dependent) nor h.
        assert dag.can_overlap(1) == (2,)
        assert dag.can_overlap(2) == (1,)
        # the final cx depends on both others
        assert dag.can_overlap(3) == ()


class TestValidateOrder:
    def test_program_order_is_valid(self):
        circ = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        dag = CircuitDag(circ)
        assert dag.validate_order([0, 1, 2])

    def test_violating_order_rejected(self):
        circ = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        dag = CircuitDag(circ)
        assert not dag.validate_order([1, 0, 2])

    def test_non_permutation_rejected(self):
        dag = CircuitDag(QuantumCircuit(2).h(0).h(1))
        assert not dag.validate_order([0, 0])
        assert not dag.validate_order([0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_topological_order_is_always_valid(seed):
    rng = np.random.default_rng(seed)
    circ = random_circuit(rng, 4, 25, with_barriers=True)
    dag = CircuitDag(circ)
    assert dag.validate_order(dag.topological_order())
    assert dag.topological_order() == list(
        nx.lexicographical_topological_sort(dag.graph))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_concurrency_is_symmetric_and_exclusive(seed):
    rng = np.random.default_rng(seed)
    circ = random_circuit(rng, 4, 20)
    dag = CircuitDag(circ)
    n = len(circ)
    for i in range(n):
        for j in range(i + 1, n):
            assert dag.concurrent(i, j) == dag.concurrent(j, i)
            dependent = j in dag.descendants(i) or j in dag.ancestors(i)
            assert dag.concurrent(i, j) == (not dependent)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_layers_partition_and_respect_dependencies(seed):
    rng = np.random.default_rng(seed)
    circ = random_circuit(rng, 5, 30, with_barriers=True)
    dag = CircuitDag(circ)
    layers = dag.layers()
    flattened = sorted(idx for layer in layers for idx in layer)
    assert flattened == list(range(len(circ)))
    level = {idx: k for k, layer in enumerate(layers) for idx in layer}
    for u, v in dag.graph.edges:
        assert level[u] < level[v]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_qubit_chains_are_time_ordered(seed):
    rng = np.random.default_rng(seed)
    circ = random_circuit(rng, 4, 25)
    dag = CircuitDag(circ)
    for q in range(circ.num_qubits):
        chain = dag.qubit_chain(q)
        assert list(chain) == sorted(chain)
        for earlier, later in zip(chain, chain[1:]):
            assert earlier in dag.ancestors(later)
