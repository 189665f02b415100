"""RB sequence construction.

An RB sequence of length ``m`` is ``m`` uniformly random Clifford elements
followed by the group inverse of their product, so an ideal execution is
the identity and the survival probability (returning to |0..0>) decays as
``A f**m + B`` under noise.  Sequences are built on local qubits 0..n-1 and
mapped onto device qubits when executed.

Two generation entry points:

* :func:`generate_rb_sequence` — sample from a caller-supplied stream
  (the historical per-experiment path);
* :func:`shared_rb_sequences` — sample each key from a stable stream keyed
  on ``(num_qubits, length, seq_index, slot, seed_class)`` and memoize the
  result in a module-level cache, so a characterization sweep that runs
  hundreds of experiments with the same sizing generates each sequence
  *once* and reuses it everywhere (including across the fresh per-task
  executors a campaign pool creates within one worker process).
  :func:`shared_rb_sequence` is its one-key form.

Both close their sequences through
:meth:`~repro.rb.clifford.CliffordGroup.product_inverses`, which advances
every sequence of a request in lockstep: one stacked tableau product per
Clifford position and one batched inverse.  A sequence's elements come
from its own stream alone, so it is the same whichever sequences it is
generated with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.seeding import stable_rng
from repro.rb.clifford import CliffordElement, CliffordGroup, clifford_group

GateList = Tuple[Tuple[str, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class RBSequence:
    """One random sequence: the sampled Cliffords plus the closing inverse.

    ``cache_token`` is set (to the stable generation key) only on
    sequences produced by :func:`shared_rb_sequence`; downstream
    estimators use it to memoize per-sequence derived structures (the
    exact estimator's plans).  It never participates in equality.
    """

    elements: Tuple[CliffordElement, ...]
    inverse: CliffordElement
    cache_token: Optional[Tuple] = field(default=None, compare=False)

    @property
    def length(self) -> int:
        """RB length ``m`` (number of random Cliffords, inverse excluded)."""
        return len(self.elements)

    def layers(self) -> Tuple[GateList, ...]:
        """Per-Clifford gate layers (local qubit indices), inverse last.

        The executor aligns layer ``k`` of simultaneously-benchmarked pairs,
        which is how concurrent driving is modelled in SRB.
        """
        return tuple(el.gates for el in (*self.elements, self.inverse))

    def total_cnots(self) -> int:
        return sum(el.cnot_count for el in (*self.elements, self.inverse))

    def mapped_gates(self, qubits: Sequence[int]) -> GateList:
        """All gates with local indices replaced by device ``qubits``."""
        out = []
        for layer in self.layers():
            for name, locals_ in layer:
                out.append((name, tuple(qubits[q] for q in locals_)))
        return tuple(out)


def generate_rb_sequence(group: CliffordGroup, length: int,
                         rng: np.random.Generator) -> RBSequence:
    """Sample a length-``m`` sequence and close it with the exact inverse."""
    return _closed_sequences(group, [_draw(group, length, rng)])[0]


def _draw(group: CliffordGroup, length: int,
          rng: np.random.Generator) -> np.ndarray:
    """The element indices of one random length-``m`` sequence."""
    if length < 1:
        raise ValueError("RB length must be at least 1")
    return rng.integers(len(group), size=length)


def _closed_sequences(group: CliffordGroup, rows: List[np.ndarray],
                      tokens: Optional[List[Tuple]] = None
                      ) -> List[RBSequence]:
    """One sequence per row of element indices, each closed by its inverse."""
    inverses = group.product_inverses(rows)
    tokens = tokens if tokens is not None else [None] * len(rows)
    return [
        RBSequence(tuple(group.elements[int(i)] for i in row),
                   group.elements[int(inverse)], cache_token=token)
        for row, inverse, token in zip(rows, inverses, tokens)
    ]


#: Memoized shared sequences; bounded so pathological sweeps (many seed
#: classes in one process) cannot grow without limit.
_SHARED_SEQUENCES: Dict[Tuple, RBSequence] = {}
_SHARED_SEQUENCES_LIMIT = 8192


def shared_rb_sequence(num_qubits: int, length: int, seq_index: int,
                       slot: int, seed_class: Tuple) -> RBSequence:
    """A memoized random sequence keyed by experiment *shape*, not target.

    ``seq_index`` is the sequence's position within an experiment's
    ``num_sequences`` repeats, ``slot`` the target's position within the
    experiment (so the two halves of an SRB pair draw different
    sequences), and ``seed_class`` the sweep identity (device fingerprint,
    day, executor base seed).  Every experiment of a sweep that asks for
    the same key gets the *same* — stably generated — sequence, which is
    what lets a pair sweep over hundreds of edges amortize generation:
    the targets themselves are deliberately absent from the key.
    """
    return shared_rb_sequences(
        [(num_qubits, length, seq_index, slot, seed_class)])[0]


def shared_rb_sequences(keys: Sequence[Tuple]) -> List[RBSequence]:
    """:func:`shared_rb_sequence` for many ``(num_qubits, length,
    seq_index, slot, seed_class)`` keys at once.

    Keys not yet memoized are generated together, one lockstep pass per
    qubit count.  Each key still draws from its own stable stream, so
    every sequence is exactly what a one-key call returns.
    """
    found = {key: _SHARED_SEQUENCES.get(key) for key in keys}
    missing = [key for key, seq in found.items() if seq is None]
    for num_qubits in sorted({key[0] for key in missing}):
        group = clifford_group(num_qubits)
        todo = [key for key in missing if key[0] == num_qubits]
        rows = [
            _draw(group, key[1], stable_rng("rb.sequence", *key[:4],
                                            list(key[4])))
            for key in todo
        ]
        for key, seq in zip(todo, _closed_sequences(group, rows, todo)):
            if len(_SHARED_SEQUENCES) >= _SHARED_SEQUENCES_LIMIT:
                _SHARED_SEQUENCES.clear()
            _SHARED_SEQUENCES[key] = seq
            found[key] = seq
    return [found[key] for key in keys]
