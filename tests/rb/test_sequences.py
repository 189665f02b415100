"""Tests for RB sequence generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.seeding import stable_rng
from repro.rb import sequences as rb_sequences
from repro.rb.clifford import clifford_group
from repro.rb.sequences import (
    generate_rb_sequence,
    shared_rb_sequence,
    shared_rb_sequences,
)
from repro.sim.stabilizer import StabilizerSimulator

SEED_CLASS = ("fingerprint", 3, 17)


def _compose_loop(group, indices):
    """Reference closing: a ``compose`` chain and ``inverse_element``."""
    elements = tuple(group.elements[int(i)] for i in indices)
    product = elements[0].tableau
    for el in elements[1:]:
        product = product.compose(el.tableau)
    return elements, group.inverse_element(product)


class TestGeneration:
    def test_length(self, clifford_2q, rng):
        seq = generate_rb_sequence(clifford_2q, 7, rng)
        assert seq.length == 7
        assert len(seq.layers()) == 8  # m Cliffords + inverse

    def test_invalid_length(self, clifford_2q, rng):
        with pytest.raises(ValueError):
            generate_rb_sequence(clifford_2q, 0, rng)

    def test_closes_to_identity_tableau(self, clifford_2q, rng):
        for m in (1, 3, 10):
            seq = generate_rb_sequence(clifford_2q, m, rng)
            product = seq.elements[0].tableau
            for el in seq.elements[1:]:
                product = product.compose(el.tableau)
            assert product.compose(seq.inverse.tableau).is_identity()

    def test_total_cnots(self, clifford_2q, rng):
        seq = generate_rb_sequence(clifford_2q, 5, rng)
        assert seq.total_cnots() == sum(
            el.cnot_count for el in (*seq.elements, seq.inverse)
        )

    def test_mapped_gates_relabel_qubits(self, clifford_2q, rng):
        seq = generate_rb_sequence(clifford_2q, 2, rng)
        gates = seq.mapped_gates((7, 13))
        for _, qubits in gates:
            assert set(qubits) <= {7, 13}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000), length=st.integers(1, 12))
def test_noiseless_execution_returns_to_ground(seed, length, clifford_2q):
    rng = np.random.default_rng(seed)
    seq = generate_rb_sequence(clifford_2q, length, rng)
    sim = StabilizerSimulator(2)
    for name, qubits in seq.mapped_gates((0, 1)):
        sim.apply_gate(name, qubits)
    assert sim.survival_probability() == pytest.approx(1.0)


class TestBatchedClosing:
    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_product_inverses_match_compose_loop(self, num_qubits, rng):
        group = clifford_group(num_qubits)
        rows = [rng.integers(len(group), size=length)
                for length in (1, 5, 2, 17, 9, 1, 30, 5)]
        inverses = group.product_inverses(rows)
        assert len(inverses) == len(rows)
        for row, inverse in zip(rows, inverses):
            assert group.elements[inverse] is _compose_loop(group, row)[1]

    def test_product_inverses_rejects_empty_rows(self, clifford_1q):
        with pytest.raises(ValueError):
            clifford_1q.product_inverses([[0, 1], []])

    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_shared_sequences_match_scalar_generation(self, num_qubits):
        # Each key draws from its own stable stream, exactly as one-key
        # generation did before batching, whatever else is in the request.
        group = clifford_group(num_qubits)
        keys = [(num_qubits, length, index, slot, SEED_CLASS)
                for length in (2, 20, 8) for index in range(3)
                for slot in range(2)]
        rb_sequences._SHARED_SEQUENCES.clear()
        for key, seq in zip(keys, shared_rb_sequences(keys)):
            rng = stable_rng("rb.sequence", *key[:4], list(key[4]))
            indices = rng.integers(len(group), size=key[1])
            elements, inverse = _compose_loop(group, indices)
            assert seq.elements == elements
            assert seq.inverse is inverse


class TestSharedSequence:
    def test_same_key_same_object(self):
        key = (2, 6, 0, 0, SEED_CLASS)
        assert shared_rb_sequence(*key) is shared_rb_sequence(*key)
        assert shared_rb_sequences([key, key])[0] is shared_rb_sequence(*key)

    def test_cache_token_is_key(self):
        key = (1, 4, 2, 1, SEED_CLASS)
        assert shared_rb_sequence(*key).cache_token == key

    def test_slot_and_repeat_index_change_the_sequence(self):
        base = shared_rb_sequence(2, 10, 0, 0, SEED_CLASS)
        assert shared_rb_sequence(2, 10, 0, 1, SEED_CLASS) != base
        assert shared_rb_sequence(2, 10, 1, 0, SEED_CLASS) != base

    def test_regenerated_after_clear_equals_original(self):
        key = (2, 12, 3, 1, SEED_CLASS)
        original = shared_rb_sequence(*key)
        rb_sequences._SHARED_SEQUENCES.clear()
        again = shared_rb_sequence(*key)
        assert again is not original
        assert again == original

    def test_limit_clears_within_one_request(self, monkeypatch):
        monkeypatch.setattr(rb_sequences, "_SHARED_SEQUENCES_LIMIT", 4)
        rb_sequences._SHARED_SEQUENCES.clear()
        keys = [(1, 3, index, 0, SEED_CLASS) for index in range(10)]
        batch = shared_rb_sequences(keys)
        # Inserting ten keys under a limit of four clears the cache before
        # the fifth and the ninth insertion.
        assert list(rb_sequences._SHARED_SEQUENCES) == keys[8:]
        rb_sequences._SHARED_SEQUENCES.clear()
        assert batch == [shared_rb_sequence(*key) for key in keys]

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            shared_rb_sequences([(2, 0, 0, 0, SEED_CLASS)])
