"""Tests for Clifford tableaus and group enumeration.

The group fixtures are session-scoped.  The enumeration runs Dijkstra one
cost level at a time; :func:`_reference_enumeration` keeps the one-element-
at-a-time heap it must reproduce bitwise (element order, tableaux, gate
decompositions).  The algebraic identities checked here are the
foundations RB correctness rests on.
"""

import heapq
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rb.clifford import CliffordGroup, CliffordTableau, _gate_tableau
from repro.sim.statevector import Statevector
from repro.sim.unitaries import pauli_matrix


def _reference_enumeration(num_qubits):
    """Dijkstra from the identity with a heap, one element at a time.

    Cost is (CNOT count, gate count); ties pop in tableau-key order and a
    relaxation wins only when strictly cheaper.  Returns ``(key, gates)``
    per element, in key order.
    """
    gens = [(name, (q,)) for q in range(num_qubits)
            for name in ("h", "s", "sdg")]
    if num_qubits == 2:
        gens += [("cx", (0, 1)), ("cx", (1, 0))]
    identity = CliffordTableau.identity(num_qubits)
    best = {identity.key(): (0, 0)}
    entry = {identity.key(): (None, None, identity)}
    heap = [(0, 0, identity.key())]
    while heap:
        cnots, ngates, key = heapq.heappop(heap)
        if (cnots, ngates) != best[key]:
            continue
        for gate in gens:
            nxt = entry[key][2].compose(_gate_tableau(num_qubits, *gate))
            nkey = nxt.key()
            ncost = (cnots + (gate[0] == "cx"), ngates + 1)
            if nkey not in best or ncost < best[nkey]:
                best[nkey] = ncost
                entry[nkey] = (key, gate, nxt)
                heapq.heappush(heap, (*ncost, nkey))
    elements = []
    for key in sorted(best):
        gates = []
        cursor = key
        while entry[cursor][1] is not None:
            cursor, gate, _ = entry[cursor]
            gates.append(gate)
        elements.append((key, tuple(reversed(gates))))
    return elements


class TestEnumerationOracle:
    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_matches_heap_dijkstra(self, num_qubits, clifford_1q,
                                   clifford_2q):
        group = {1: clifford_1q, 2: clifford_2q}[num_qubits]
        reference = _reference_enumeration(num_qubits)
        assert [el.index for el in group.elements] == list(
            range(len(reference)))
        assert [el.tableau.key() for el in group.elements] == [
            key for key, _ in reference]
        assert [el.gates for el in group.elements] == [
            gates for _, gates in reference]
        assert group._index_of == {
            key: index for index, (key, _) in enumerate(reference)}

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_stacked_tableaux_are_the_elements(self, num_qubits,
                                               clifford_1q, clifford_2q):
        group = {1: clifford_1q, 2: clifford_2q}[num_qubits]
        mats, phases, swaps = group.stacked_tableaux()
        assert mats.dtype == phases.dtype == swaps.dtype == np.int64
        assert np.array_equal(
            mats, np.stack([el.tableau.mat for el in group.elements]))
        assert np.array_equal(
            phases, np.stack([el.tableau.phase for el in group.elements]))
        assert np.array_equal(
            swaps, np.stack([el.tableau._swap_matrix()
                             for el in group.elements]))


class TestGroupOrders:
    def test_single_qubit_group(self, clifford_1q):
        assert len(clifford_1q) == 24
        assert clifford_1q.average_cnot_count() == 0.0

    def test_two_qubit_group(self, clifford_2q):
        assert len(clifford_2q) == 11520

    def test_cnot_histogram(self, clifford_2q):
        histogram = Counter(el.cnot_count for el in clifford_2q.elements)
        assert histogram == {0: 576, 1: 5184, 2: 5184, 3: 576}

    def test_average_cnots_exactly_1_5(self, clifford_2q):
        # The divisor used to convert Clifford error to CNOT error (§8.1).
        assert clifford_2q.average_cnot_count() == pytest.approx(1.5)

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError):
            CliffordGroup(3)


class TestTableauAlgebra:
    def test_identity(self):
        assert CliffordTableau.identity(2).is_identity()

    def test_compose_with_identity(self, clifford_2q, rng):
        identity = CliffordTableau.identity(2)
        el = clifford_2q.sample(rng)
        assert el.tableau.compose(identity) == el.tableau
        assert identity.compose(el.tableau) == el.tableau

    def test_inverse_both_sides(self, clifford_2q, rng):
        for _ in range(20):
            el = clifford_2q.sample(rng)
            inv = el.tableau.inverse()
            assert el.tableau.compose(inv).is_identity()
            assert inv.compose(el.tableau).is_identity()

    def test_inverse_is_group_member(self, clifford_2q, rng):
        for _ in range(10):
            el = clifford_2q.sample(rng)
            clifford_2q.index_of(el.tableau.inverse())  # must not raise

    def test_closure_under_composition(self, clifford_2q, rng):
        for _ in range(10):
            a = clifford_2q.sample(rng)
            b = clifford_2q.sample(rng)
            clifford_2q.index_of(a.tableau.compose(b.tableau))

    def test_associativity(self, clifford_2q, rng):
        for _ in range(5):
            a, b, c = (clifford_2q.sample(rng).tableau for _ in range(3))
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_index_of_unknown_raises(self, clifford_2q):
        bogus = CliffordTableau(
            np.eye(4, dtype=np.uint8), np.array([1, 0, 0, 0], dtype=np.uint8)
        )
        # phase 1 on an X row is i*X, not Hermitian: not a group element
        with pytest.raises(KeyError):
            clifford_2q.index_of(bogus)


class TestDecompositions:
    def _tableau_from_gates(self, gates, num_qubits=2):
        tab = CliffordTableau.identity(num_qubits)
        for name, qubits in gates:
            tab = tab.apply_gate(name, qubits)
        return tab

    def test_decompositions_reproduce_tableau(self, clifford_2q, rng):
        for _ in range(25):
            el = clifford_2q.sample(rng)
            assert self._tableau_from_gates(el.gates) == el.tableau

    def test_identity_element_empty_decomposition(self, clifford_2q):
        idx = clifford_2q.index_of(CliffordTableau.identity(2))
        assert clifford_2q[idx].gates == ()

    def test_decomposition_gate_names(self, clifford_2q, rng):
        allowed = {"h", "s", "sdg", "cx"}
        for _ in range(10):
            el = clifford_2q.sample(rng)
            assert {name for name, _ in el.gates} <= allowed


class TestSemanticsAgainstUnitaries:
    def _unitary_from_gates(self, gates):
        u = np.eye(4, dtype=complex)
        for name, qubits in gates:
            sv_cols = []
            for i in range(4):
                s = Statevector.from_vector(np.eye(4)[i])
                s.apply_gate(name, qubits)
                sv_cols.append(s.vector)
            u = np.column_stack(sv_cols) @ u
        return u

    def test_conjugation_matches_matrix_algebra(self, clifford_2q, rng):
        labels = ["XI", "IX", "ZI", "IZ"]
        for _ in range(8):
            el = clifford_2q.sample(rng)
            u = self._unitary_from_gates(el.gates)
            for row, label in enumerate(labels):
                p = pauli_matrix(label)
                image = u @ p @ u.conj().T
                bits = el.tableau.mat[row]
                e = int(el.tableau.phase[row])
                x_label = "".join("X" if b else "I" for b in bits[:2])
                z_label = "".join("Z" if b else "I" for b in bits[2:])
                expected = (1j ** e) * pauli_matrix(x_label) @ pauli_matrix(z_label)
                assert np.allclose(image, expected), (el.index, label)


class TestGateTableaus:
    @pytest.mark.parametrize("name,qubits", [
        ("h", (0,)), ("s", (1,)), ("sdg", (0,)), ("x", (1,)), ("y", (0,)),
        ("z", (1,)), ("cx", (0, 1)), ("cx", (1, 0)), ("cz", (0, 1)),
        ("swap", (0, 1)),
    ])
    def test_gate_tableaus_invertible(self, name, qubits):
        tab = _gate_tableau(2, name, qubits)
        assert tab.compose(tab.inverse()).is_identity()

    def test_unknown_gate(self):
        with pytest.raises(KeyError):
            _gate_tableau(2, "t", (0,))

    def test_hh_is_identity(self):
        h = _gate_tableau(1, "h", (0,))
        assert h.compose(h).is_identity()

    def test_ssss_is_identity(self):
        s = _gate_tableau(1, "s", (0,))
        assert s.compose(s).compose(s).compose(s).is_identity()

    def test_s_sdg_cancel(self):
        s = _gate_tableau(1, "s", (0,))
        sdg = _gate_tableau(1, "sdg", (0,))
        assert s.compose(sdg).is_identity()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_uniform_sampling_covers_group(seed, clifford_2q):
    rng = np.random.default_rng(seed)
    indices = {clifford_2q.sample(rng).index for _ in range(64)}
    # 64 draws from 11520 elements collide rarely; expect near-distinct.
    assert len(indices) > 55


class TestGateTable:
    def test_concurrent_fills_agree_with_serial(self):
        """Threads filling one group's gate table at once must each get,
        and leave behind, exactly the rows a serial fill gives."""
        serial = CliffordGroup(1)
        everything = serial.gate_table(range(len(serial)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                group = CliffordGroup(1)
                rng = np.random.default_rng(trial)
                requests = [rng.permutation(len(group))[:12]
                            for _ in range(8)]
                barrier = threading.Barrier(len(requests), timeout=5.0)
                results = [None] * len(requests)

                def work(k):
                    barrier.wait()
                    results[k] = group.gate_table(requests[k])

                threads = [threading.Thread(target=work, args=(k,))
                           for k in range(len(requests))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                for request, got in zip(requests, results):
                    for a, b in zip(got, serial.gate_table(request)):
                        assert np.array_equal(a, b)
                for a, b in zip(group.gate_table(range(len(group))),
                                everything):
                    assert np.array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)
