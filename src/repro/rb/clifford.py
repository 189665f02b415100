"""Exact Clifford groups with CNOT-minimal gate decompositions.

A Clifford unitary is represented by its conjugation tableau: the images of
the generators ``X_0..X_{n-1}, Z_0..Z_{n-1}`` under ``P -> U P U†``.  Each
image is a Pauli stored as an (x|z) bit row plus a phase exponent ``e``
(the Pauli is ``i**e * X^x Z^z``; Hermiticity forces ``e ≡ x·z (mod 2)``).

The full group is enumerated by Dijkstra from the identity over the
generator set {H, S, Sdg} per qubit plus both CNOT orientations, with
lexicographic cost (CNOT count, total gates), run one cost level at a
time: each level is one stacked product of its elements with every
generator, and ties break as in a heap that pops one element at a time
(see :meth:`CliffordGroup._enumerate`), so the decompositions are that
heap's.  This yields

* the single-qubit group: 24 elements, no CNOTs;
* the two-qubit group: 11520 elements with the known CNOT-cost profile
  576 / 5184 / 5184 / 576 for 0/1/2/3 CNOTs — average exactly 1.5 CNOTs
  per Clifford, the divisor used when converting RB's error-per-Clifford
  into a CNOT error rate (Section 8.1).

Enumeration also gives exact inverses (algebraically, via the symplectic
inverse plus a Pauli sign fix) so RB sequences can always be closed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class CliffordTableau:
    """Conjugation tableau of an n-qubit Clifford unitary."""

    def __init__(self, mat: np.ndarray, phase: np.ndarray):
        # mat[i] is the (x|z) row of the image of generator i; generators
        # are ordered X_0..X_{n-1}, Z_0..Z_{n-1}.  phase[i] = e (mod 4).
        self.mat = np.asarray(mat, dtype=np.uint8) % 2
        self.phase = np.asarray(phase, dtype=np.uint8) % 4
        if self.mat.shape[0] != self.mat.shape[1] or self.mat.shape[0] % 2:
            raise ValueError("tableau matrix must be 2n x 2n")
        self.num_qubits = self.mat.shape[0] // 2
        self._swaps: Optional[np.ndarray] = None

    def _swap_matrix(self) -> np.ndarray:
        """Strict upper triangle of ``Z @ X^T`` — anticommutation swaps
        incurred when this tableau's generator images are multiplied in
        generator order.  Depends only on ``mat``, so it is computed once
        and reused across every :meth:`compose` with this tableau on the
        right (RB sequence products hit the same group elements over and
        over)."""
        if self._swaps is None:
            self._swaps = _swap_terms(self.mat.astype(np.int64))
        return self._swaps

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int) -> "CliffordTableau":
        return cls(np.eye(2 * num_qubits, dtype=np.uint8),
                   np.zeros(2 * num_qubits, dtype=np.uint8))

    def key(self) -> bytes:
        """Canonical hashable form."""
        return self.mat.tobytes() + self.phase.tobytes()

    def is_identity(self) -> bool:
        n2 = 2 * self.num_qubits
        return bool(
            np.array_equal(self.mat, np.eye(n2, dtype=np.uint8))
            and not self.phase.any()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # ------------------------------------------------------------------
    def _push_pauli(self, x: np.ndarray, z: np.ndarray, e: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Image of the Pauli ``i**e X^x Z^z`` under this tableau.

        The input Pauli is the ordered product ``prod_j X_j^{x_j}`` times
        ``prod_j Z_j^{z_j}``; its image multiplies the corresponding
        generator images in the same order, tracking phases via
        ``X^a Z^b · X^c Z^d = (-1)^{b·c} X^{a+c} Z^{b+d}``.
        """
        n = self.num_qubits
        acc_x = np.zeros(n, dtype=np.uint8)
        acc_z = np.zeros(n, dtype=np.uint8)
        acc_e = e % 4
        for j in range(n):
            if x[j]:
                acc_x, acc_z, acc_e = _pauli_mult(
                    acc_x, acc_z, acc_e,
                    self.mat[j, :n], self.mat[j, n:], int(self.phase[j]),
                )
        for j in range(n):
            if z[j]:
                acc_x, acc_z, acc_e = _pauli_mult(
                    acc_x, acc_z, acc_e,
                    self.mat[n + j, :n], self.mat[n + j, n:], int(self.phase[n + j]),
                )
        return acc_x, acc_z, acc_e

    def compose(self, second: "CliffordTableau") -> "CliffordTableau":
        """Tableau of applying ``self`` first, then ``second``.

        As maps on Paulis: ``result(P) = second(self(P))``.

        Vectorized over all ``2n`` generator rows: the composed bit matrix
        is the GF(2) product ``self.mat @ second.mat``, and the composed
        phase of row ``i`` is its input phase, plus the phases of the
        generator images of ``second`` that row ``i`` selects, plus two for
        every anticommutation swap incurred while multiplying those images
        in generator order — a quadratic form over the strictly upper
        triangle of ``Z_2 @ X_2^T`` (valid mod 4 because ``2 (a mod 2) ≡
        2a``).  Bit-identical to multiplying the images one by one with
        :meth:`_push_pauli`.
        """
        if second.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        mat = (self.mat @ second.mat) % 2  # row sums <= 2n, no uint8 overflow
        selector = self.mat.astype(np.int64)
        swaps = second._swap_matrix()
        anticommutations = np.einsum("ij,jl,il->i", selector, swaps, selector)
        phase = (
            self.phase.astype(np.int64)
            + selector @ second.phase.astype(np.int64)
            + 2 * anticommutations
        ) % 4
        return CliffordTableau(mat, phase.astype(np.uint8))

    def inverse(self) -> "CliffordTableau":
        """Exact group inverse (symplectic inverse + Pauli sign fix)."""
        n = self.num_qubits
        omega = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        omega[:n, n:] = np.eye(n, dtype=np.uint8)
        omega[n:, :n] = np.eye(n, dtype=np.uint8)
        inv_mat = (omega @ self.mat.T % 2 @ omega) % 2
        # Hermitian-positive phases: e = x·z (mod 4 representative in {0,1,2,3}).
        herm_phase = np.array(
            [int(np.dot(inv_mat[i, :n], inv_mat[i, n:]) % 4) for i in range(2 * n)],
            dtype=np.uint8,
        )
        candidate = CliffordTableau(inv_mat, herm_phase)
        # D = candidate(self(P)) has identity matrix and sign flips only;
        # composing the candidate with D's sign pattern yields the inverse.
        residual = self.compose(candidate)
        if not np.array_equal(residual.mat, np.eye(2 * n, dtype=np.uint8)):
            raise AssertionError("symplectic inverse failed")  # pragma: no cover
        fixed = candidate.compose(residual)
        return fixed

    # ------------------------------------------------------------------
    def apply_gate(self, name: str, qubits: Sequence[int]) -> "CliffordTableau":
        """Tableau of (self, then the named gate)."""
        return self.compose(_gate_tableau(self.num_qubits, name, tuple(qubits)))


def _swap_terms(mat: np.ndarray) -> np.ndarray:
    """Strict upper triangle of ``Z @ X^T`` for one or a stack of tableau
    matrices (see :meth:`CliffordTableau._swap_matrix`)."""
    n = mat.shape[-1] // 2
    return np.triu(mat[..., n:] @ np.swapaxes(mat[..., :n], -1, -2), 1)


def _compose_stacked(mat: np.ndarray, phase: np.ndarray,
                     second_mat: np.ndarray, second_phase: np.ndarray,
                     second_swaps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`CliffordTableau.compose` over stacks of ``B`` tableaux.

    Row ``b`` of the result applies tableau ``b`` of the first stack, then
    tableau ``b`` of the second, by the same algebra: a GF(2) matrix
    product, and phases from the selected generator images plus two per
    anticommutation swap.  Arrays are int64.
    """
    out_mat = (mat @ second_mat) % 2
    anticommutations = ((mat @ second_swaps) * mat).sum(axis=-1)
    out_phase = (phase + (mat @ second_phase[..., None])[..., 0]
                 + 2 * anticommutations) % 4
    return out_mat, out_phase


def _inverse_stacked(mat: np.ndarray,
                     phase: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`CliffordTableau.inverse` over a stack of tableaux (int64)."""
    n = mat.shape[-1] // 2
    transposed = np.swapaxes(mat, -1, -2)
    # Conjugating by the block swap omega exchanges the x and z halves of
    # both the rows and the columns of the transpose.
    inv_mat = np.concatenate([
        np.concatenate([transposed[:, n:, n:], transposed[:, n:, :n]], axis=2),
        np.concatenate([transposed[:, :n, n:], transposed[:, :n, :n]], axis=2),
    ], axis=1)
    herm_phase = (inv_mat[..., :n] * inv_mat[..., n:]).sum(axis=-1) % 4
    residual_mat, residual_phase = _compose_stacked(
        mat, phase, inv_mat, herm_phase, _swap_terms(inv_mat))
    return _compose_stacked(inv_mat, herm_phase, residual_mat,
                            residual_phase, _swap_terms(residual_mat))


def _pauli_mult(x1: np.ndarray, z1: np.ndarray, e1: int,
                x2: np.ndarray, z2: np.ndarray, e2: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """(i^e1 X^x1 Z^z1) · (i^e2 X^x2 Z^z2) in canonical X-then-Z order."""
    sign_flips = int(np.dot(z1, x2)) % 2
    return (x1 ^ x2), (z1 ^ z2), (e1 + e2 + 2 * sign_flips) % 4


@lru_cache(maxsize=None)
def _gate_tableau(num_qubits: int, name: str, qubits: Tuple[int, ...]) -> CliffordTableau:
    """Tableau of an elementary Clifford gate embedded in n qubits."""
    n = num_qubits
    tab = CliffordTableau.identity(n)
    mat, phase = tab.mat, tab.phase

    def xrow(q: int) -> int:
        return q

    def zrow(q: int) -> int:
        return n + q

    if name == "h":
        (q,) = qubits
        # X -> Z, Z -> X, Y -> -Y (phase handled by e: Y = iXZ -> i Z X =
        # i (-1) X Z -> e flips by 2).
        mat[xrow(q), q] = 0
        mat[xrow(q), n + q] = 1
        mat[zrow(q), q] = 1
        mat[zrow(q), n + q] = 0
    elif name == "s":
        (q,) = qubits
        # X -> Y = i X Z ; Z -> Z.
        mat[xrow(q), n + q] = 1
        phase[xrow(q)] = 1
    elif name == "sdg":
        (q,) = qubits
        # X -> -Y ; Z -> Z.
        mat[xrow(q), n + q] = 1
        phase[xrow(q)] = 3
    elif name == "x":
        (q,) = qubits
        phase[zrow(q)] = 2  # Z -> -Z
    elif name == "z":
        (q,) = qubits
        phase[xrow(q)] = 2  # X -> -X
    elif name == "y":
        (q,) = qubits
        phase[xrow(q)] = 2
        phase[zrow(q)] = 2
    elif name == "cx":
        c, t = qubits
        # X_c -> X_c X_t ; X_t -> X_t ; Z_c -> Z_c ; Z_t -> Z_c Z_t.
        mat[xrow(c), t] = 1
        mat[zrow(t), n + c] = 1
    elif name == "cz":
        a, b = qubits
        # X_a -> X_a Z_b ; X_b -> X_b Z_a ; Z -> Z.
        mat[xrow(a), n + b] = 1
        mat[xrow(b), n + a] = 1
    elif name == "swap":
        a, b = qubits
        mat[xrow(a)], mat[xrow(b)] = mat[xrow(b)].copy(), mat[xrow(a)].copy()
        mat[zrow(a)], mat[zrow(b)] = mat[zrow(b)].copy(), mat[zrow(a)].copy()
    else:
        raise KeyError(f"gate {name!r} is not an elementary Clifford here")
    return CliffordTableau(mat, phase)


#: Guards the lazily filled :meth:`CliffordGroup.gate_table` rows: two
#: threads filling at once would each append to the table they read and
#: publish offsets into rows the other's table lacks.
_GATE_TABLE_LOCK = threading.Lock()


@dataclass(frozen=True)
class CliffordElement:
    """One group element: its tableau and a CNOT-minimal decomposition."""

    index: int
    tableau: CliffordTableau
    gates: Tuple[Tuple[str, Tuple[int, ...]], ...]

    @property
    def cnot_count(self) -> int:
        return sum(1 for name, _ in self.gates if name == "cx")


class CliffordGroup:
    """A fully enumerated Clifford group with lookup by tableau."""

    def __init__(self, num_qubits: int):
        if num_qubits not in (1, 2):
            raise ValueError("only the 1- and 2-qubit groups are enumerated")
        self.num_qubits = num_qubits
        self.elements: List[CliffordElement] = []
        self._index_of: Dict[bytes, int] = {}
        # Per-gate rows of the elements drawn so far (see gate_table):
        # element i owns rows _gate_start[i] : _gate_start[i] + its gate
        # count; -1 marks an element not yet drawn.
        self._gate_start: Optional[np.ndarray] = None
        self._gate_count: Optional[np.ndarray] = None
        self._gate_kind = np.empty(0, dtype=np.int8)
        dim = 2 * num_qubits
        self._gate_suffix = np.empty((0, dim, dim), dtype=np.uint8)
        self._enumerate()

    # ------------------------------------------------------------------
    def _generators(self) -> List[Tuple[str, Tuple[int, ...]]]:
        gens: List[Tuple[str, Tuple[int, ...]]] = []
        for q in range(self.num_qubits):
            gens.extend([("h", (q,)), ("s", (q,)), ("sdg", (q,))])
        if self.num_qubits == 2:
            gens.extend([("cx", (0, 1)), ("cx", (1, 0))])
        return gens

    def _enumerate(self) -> None:
        """Dijkstra from the identity with cost (CNOT count, gate count),
        one cost level at a time.

        The level is the cheapest open cost; its frontier is every element
        at that best cost, in key order, composed with every generator in
        one stacked product.  Per result key the cheapest row is kept, and
        among equal-cost rows the first in (frontier key, generator)
        order; it replaces a known element only when strictly cheaper.
        That is the tie-break of a heap popping ``(cnots, gates, key)``
        and relaxing generators in order, so every element's CNOT-minimal
        decomposition is the one that heap finds.
        """
        n = self.num_qubits
        dim = 2 * n
        gens = self._generators()
        gen_mat = np.stack([_gate_tableau(n, name, qubits).mat
                            for name, qubits in gens]).astype(np.int64)
        gen_phase = np.stack([_gate_tableau(n, name, qubits).phase
                              for name, qubits in gens]).astype(np.int64)
        gen_swaps = _swap_terms(gen_mat)
        # (cnots, gates) packed into one int64 that orders the same way.
        gen_cost = np.array([(1 << 32) * (name == "cx") + 1
                             for name, _ in gens], dtype=np.int64)
        # Every key byte (a mat bit or a phase) is below 4, so the bytes
        # read as base-4 digits, first byte most significant, give int64
        # keys in the byte order of CliffordTableau.key().
        digits = 4 ** np.arange(dim * dim + dim - 1, -1, -1, dtype=np.int64)

        def keys_of(mat: np.ndarray, phase: np.ndarray) -> np.ndarray:
            return np.concatenate([mat.reshape(len(mat), -1), phase],
                                  axis=1) @ digits

        # One row per element found so far: its tableau, key, best cost,
        # and the element and generator that reached it at that cost.
        mat = np.eye(dim, dtype=np.int64)[None]
        phase = np.zeros((1, dim), dtype=np.int64)
        key = keys_of(mat, phase)
        cost = np.zeros(1, dtype=np.int64)
        parent = np.full(1, -1, dtype=np.intp)
        via = np.full(1, -1, dtype=np.intp)
        level = -1
        while (cost > level).any():
            level = cost[cost > level].min()
            frontier = np.flatnonzero(cost == level)
            frontier = frontier[np.argsort(key[frontier])]
            step_mat, step_phase = _compose_stacked(
                mat[frontier, None], phase[frontier, None],
                gen_mat, gen_phase, gen_swaps)
            step_mat = step_mat.reshape(-1, dim, dim)
            step_phase = step_phase.reshape(-1, dim)
            step_key = keys_of(step_mat, step_phase)
            step_cost = level + np.tile(gen_cost, len(frontier))
            # lexsort is stable, so equal (key, cost) rows stay in
            # (frontier key, generator) order: keep each key's first row.
            rows = np.lexsort((step_cost, step_key))
            rows = rows[np.r_[True, np.diff(step_key[rows]) != 0]]
            sorter = np.argsort(key)
            at = np.searchsorted(key, step_key[rows], sorter=sorter)
            known = sorter[np.minimum(at, len(key) - 1)]
            found = key[known] == step_key[rows]
            better = found & (step_cost[rows] < cost[known])
            cost[known[better]] = step_cost[rows[better]]
            parent[known[better]] = frontier[rows[better] // len(gens)]
            via[known[better]] = rows[better] % len(gens)
            new = rows[~found]
            mat = np.concatenate([mat, step_mat[new]])
            phase = np.concatenate([phase, step_phase[new]])
            key = np.concatenate([key, step_key[new]])
            cost = np.concatenate([cost, step_cost[new]])
            parent = np.concatenate([parent, frontier[new // len(gens)]])
            via = np.concatenate([via, new % len(gens)])

        # A parent is always cheaper than its child, so walking elements
        # in cost order builds every decomposition from its parent's.
        paths: List[Tuple[Tuple[str, Tuple[int, ...]], ...]] = [()] * len(key)
        parents, vias = parent.tolist(), via.tolist()
        for row in np.argsort(cost, kind="stable").tolist():
            if parents[row] >= 0:
                paths[row] = paths[parents[row]] + (gens[vias[row]],)
        order = np.argsort(key)
        mat, phase = mat[order], phase[order]
        self._stacked = (mat, phase, _swap_terms(mat))
        mat_u8, phase_u8 = mat.astype(np.uint8), phase.astype(np.uint8)
        for idx, row in enumerate(order.tolist()):
            tableau = CliffordTableau(mat_u8[idx], phase_u8[idx])
            self.elements.append(CliffordElement(idx, tableau, paths[row]))
            self._index_of[tableau.key()] = idx

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index: int) -> CliffordElement:
        return self.elements[index]

    def index_of(self, tableau: CliffordTableau) -> int:
        try:
            return self._index_of[tableau.key()]
        except KeyError:
            raise KeyError("tableau is not a group element") from None

    def element_of(self, tableau: CliffordTableau) -> CliffordElement:
        return self.elements[self.index_of(tableau)]

    def inverse_element(self, tableau: CliffordTableau) -> CliffordElement:
        """The group element implementing ``tableau``'s inverse."""
        return self.element_of(tableau.inverse())

    def product_inverses(self, rows: Sequence[Sequence[int]]) -> np.ndarray:
        """Index of the inverse of each row's product of elements.

        Row ``b`` lists element indices applied first to last, as a chain
        of :meth:`CliffordTableau.compose` calls would; rows may differ in
        length.  All rows advance in lockstep, with one stacked GF(2)
        product per position over the rows still running, then one
        batched inverse, and each result is looked up by its tableau key.
        The element returned for a row is the one
        :meth:`inverse_element` returns for its product.
        """
        mats, phases, swaps = self.stacked_tableaux()
        lengths = np.array([len(row) for row in rows])
        if len(rows) == 0 or lengths.min() < 1:
            raise ValueError("every row needs at least one element")
        # Longest rows first, so the rows still running are a prefix.
        order = np.argsort(-lengths, kind="stable")
        indices = np.zeros((len(rows), lengths.max()), dtype=np.intp)
        for position, b in enumerate(order):
            indices[position, :lengths[b]] = rows[b]
        mat = mats[indices[:, 0]]
        phase = phases[indices[:, 0]]
        for k in range(1, lengths.max()):
            live = int((lengths > k).sum())
            step = indices[:live, k]
            mat[:live], phase[:live] = _compose_stacked(
                mat[:live], phase[:live], mats[step], phases[step],
                swaps[step])
        inv_mat, inv_phase = _inverse_stacked(mat, phase)
        inv_mat = inv_mat.astype(np.uint8)
        inv_phase = inv_phase.astype(np.uint8)
        out = np.empty(len(rows), dtype=np.intp)
        for position, b in enumerate(order):
            key = inv_mat[position].tobytes() + inv_phase[position].tobytes()
            out[b] = self._index_of[key]
        return out

    def stacked_tableaux(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every element's matrix, phases and swap terms, stacked (int64)
        in element order: the arrays the enumeration built."""
        return self._stacked

    def gate_table(self, indices: Sequence[int]
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-gate structure of the elements ``indices``, in order.

        Returns ``(counts, kinds, suffixes)``.  ``counts[i]`` is the gate
        count of element ``indices[i]``; the other two run over the
        elements' gates laid end to end.  ``kinds`` is 0 for a CNOT and
        ``1 + q`` for a single-qubit gate on qubit ``q``.  ``suffixes`` is
        ``(total gates, 2n, 2n)``: the GF(2) product of the element's gate
        tableaux *after* each gate, which maps the (x|z) bits of a Pauli
        injected right after that gate to its bits at the end of the
        element.

        An element's rows are computed the first time it is requested and
        kept in one table per group, so every request is one gather:
        RB sequences draw the same elements over and over, and elements
        never drawn cost nothing.
        """
        indices = np.asarray(indices, dtype=np.intp)
        with _GATE_TABLE_LOCK:
            if self._gate_start is None:
                self._gate_start = np.full(len(self.elements), -1,
                                           dtype=np.intp)
                self._gate_count = np.zeros(len(self.elements), dtype=np.intp)
            new = np.unique(indices[self._gate_start[indices] < 0])
            if len(new):
                self._add_gate_rows(new.tolist())
            counts = self._gate_count[indices]
            first = np.cumsum(counts) - counts
            rows = np.arange(counts.sum()) + np.repeat(
                self._gate_start[indices] - first, counts)
            return counts, self._gate_kind[rows], self._gate_suffix[rows]

    def _add_gate_rows(self, indices: List[int]) -> None:
        """Append the :meth:`gate_table` rows of elements ``indices``."""
        dim = 2 * self.num_qubits
        kinds: List[int] = []
        suffixes = [self._gate_suffix]
        used = len(self._gate_kind)
        for index in indices:
            gates = self.elements[index].gates
            self._gate_start[index] = used
            self._gate_count[index] = len(gates)
            used += len(gates)
            block = np.empty((len(gates), dim, dim), dtype=np.uint8)
            acc = np.eye(dim, dtype=np.uint8)
            for j in range(len(gates) - 1, -1, -1):
                block[j] = acc
                name, qubits = gates[j]
                acc = (_gate_tableau(self.num_qubits, name, qubits).mat
                       @ acc) % 2
            suffixes.append(block)
            kinds.extend(0 if name == "cx" else 1 + qubits[0]
                         for name, qubits in gates)
        self._gate_kind = np.concatenate(
            [self._gate_kind, np.array(kinds, dtype=np.int8)])
        self._gate_suffix = np.concatenate(suffixes)

    def sample(self, rng: np.random.Generator) -> CliffordElement:
        """Uniformly random group element — exact Clifford twirling."""
        return self.elements[int(rng.integers(len(self.elements)))]

    def average_cnot_count(self) -> float:
        return float(np.mean([el.cnot_count for el in self.elements]))

    def average_gate_count(self) -> float:
        """Mean physical gates per element (the 1q analogue of 1.5 CNOTs)."""
        return float(np.mean([len(el.gates) for el in self.elements]))


@lru_cache(maxsize=None)
def clifford_group(num_qubits: int) -> CliffordGroup:
    """The group on ``num_qubits`` qubits, enumerated once per process
    (level by level, ~0.3 s for the 2-qubit group)."""
    return CliffordGroup(num_qubits)
