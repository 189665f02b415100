"""Noisy execution of (simultaneous) randomized benchmarking experiments.

One *experiment* drives a set of **units** in parallel, where a unit is a
single target (independent RB) or a pair of targets (SRB); a target is a
hardware CNOT edge or — for the original addressability protocol [16] — a
single qubit.  Bin-packed characterization (Optimization 2) simply passes
several units at once.

Noise model (all Clifford, so everything runs on the stabilizer simulator):

* every CNOT suffers a random two-qubit Pauli with its ground-truth
  conditional probability, conditioned on which *other* edges are driving
  a CNOT in the same aligned Clifford layer — the executor asks the same
  :class:`~repro.device.crosstalk.CrosstalkModel` the main backend uses, so
  SRB measures exactly the physics the scheduler will face;
* single-qubit gates suffer random single-qubit Paulis at the calibrated
  (tiny) rate;
* per layer, every participating qubit suffers Pauli-twirled decoherence
  (X/Y with probability gamma/4 each, Z with gamma/4 + the pure-dephasing
  rate) for the layer's duration.  The twirl keeps T1/T2 effects inside the
  Clifford formalism; RB cannot distinguish a channel from its twirl.

Survival probabilities are computed exactly per error realization and
averaged; optional binomial shot noise reproduces finite-trial scatter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.device import Device
from repro.device.topology import Edge
from repro.obs.registry import get_registry
from repro.parallel.seeding import stable_rng
from repro.rb.clifford import clifford_group
from repro.rb.fitting import RBFit, fit_rb_decays
from repro.rb.sequences import (
    RBSequence,
    generate_rb_sequence,
    shared_rb_sequences,
)
from repro.sim.channels import decay_probabilities
from repro.sim.stabilizer import StabilizerSimulator
from repro.sim.unitaries import two_qubit_pauli_labels

_PAULI_2Q = two_qubit_pauli_labels()
_PAULI_1Q = ("X", "Y", "Z")


def _pauli_bits_n(letter: str, qubit: int, n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(x_bits, z_bits) over ``n`` local qubits of a 1q Pauli on ``qubit``."""
    x = [0] * n
    z = [0] * n
    if letter in ("X", "Y"):
        x[qubit] = 1
    if letter in ("Z", "Y"):
        z[qubit] = 1
    return tuple(x), tuple(z)


def _label_bits(label: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(x_bits, z_bits) of a 2-qubit Pauli label (position i = qubit i)."""
    x = tuple(1 if ch in ("X", "Y") else 0 for ch in label)
    z = tuple(1 if ch in ("Z", "Y") else 0 for ch in label)
    return x, z


#: The 15 non-identity two-qubit Paulis as (x_bits, z_bits).
_PAULI_2Q_BITS = tuple(_label_bits(label) for label in _PAULI_2Q)

#: The two-qubit Pauli support as one (15, 4) bit matrix, rows = (x|z).
_SUPPORT_2Q = np.array([[*x, *z] for x, z in _PAULI_2Q_BITS], dtype=np.uint8)


def _support_1q(n: int, local: int) -> np.ndarray:
    """The X/Y/Z support on one local qubit as a (3, 2n) bit matrix."""
    rows = [
        [*x, *z]
        for x, z in (_pauli_bits_n(ch, local, n) for ch in _PAULI_1Q)
    ]
    return np.array(rows, dtype=np.uint8)


#: Walsh character tables over Z_2^n for n = 1, 2: sign[y][x] = (-1)^(y.x)
_WALSH = {
    1: np.array([[1, 1], [1, -1]], dtype=float),
    2: np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
        dtype=float,
    ),
}


@lru_cache(maxsize=None)
def _walsh_table(n: int) -> np.ndarray:
    """Probability-free Walsh weights of every error class at every x-map.

    An error site draws a Pauli uniformly from its class's support; the
    suffix Clifford maps the Pauli's (x|z) bits to final x bits through a
    (2n, n) GF(2) matrix, the site's *x-map*, whose bits read row-major
    spell an integer ``code``.  ``table[c, code]`` is ``q_dist @ signs``:
    the Walsh transform of the distribution of final x bits.  A site
    firing with probability ``p`` multiplies the characteristic function
    by ``(1 - p) + p * W``.  Classes, by id: 0 = CNOT (uniform over the
    15 two-qubit Paulis; NaN for n = 1), ``1 + l`` = 1q gate on local
    qubit ``l`` (uniform X/Y/Z), ``1 + n + 3 l + k`` = idle kick ``k``
    (0/1/2 = X/Y/Z) on local qubit ``l``.
    """
    bits = 2 * n * n
    codes = np.arange(2 ** bits)
    x_maps = ((codes[:, None] >> np.arange(bits)) & 1).astype(np.uint8)
    x_maps = x_maps.reshape(-1, 2 * n, n)
    supports = [_SUPPORT_2Q if n == 2 else None]
    supports += [_support_1q(n, local) for local in range(n)]
    supports += [_support_1q(n, local)[k:k + 1]
                 for local in range(n) for k in range(3)]
    table = np.full((len(supports), len(codes), 2 ** n), np.nan)
    for c, support in enumerate(supports):
        if support is None:
            continue
        out_x = (support @ x_maps) % 2  # (codes, s, n)
        idx = out_x[..., 0].astype(np.intp)
        if n == 2:
            idx = idx + 2 * out_x[..., 1]
        q_dist = (idx[..., None] == np.arange(2 ** n)).mean(axis=1)
        table[c] = q_dist @ _WALSH[n]
    return table


@dataclass(frozen=True)
class _SequencePlan:
    """What the exact estimator needs from one sequence on ``n`` qubits.

    Everything here depends on the sequence alone — never on error
    probabilities — so one plan serves every experiment that draws the
    sequence.  Layers are the sequence's Clifford elements (inverse
    last).  Error sites are ordered by class in the order their factors
    multiply: the CNOTs, then the 1q gates of each local qubit in order of
    its first gate, then (with decoherence) the idle X, Y, Z kicks after
    every layer on local qubit 0, then on qubit 1; within a class, in
    gate (layer) order.
    """

    layer_cx: np.ndarray     # (L,) CNOTs per layer
    layer_gates: np.ndarray  # (L,) gates per layer
    site_class: np.ndarray   # (N,) error class id (see _walsh_table)
    site_layer: np.ndarray   # (N,) layer each site belongs to
    weights: np.ndarray      # (N, 2**n) Walsh weights W of each site
    class_sizes: np.ndarray  # sites per class, in product order (none empty)


#: Memoized plans, keyed by a shared sequence's ``cache_token`` (plus the
#: decoherence flag, which adds the idle sites).  Shared sequences recur
#: across every experiment of a pair sweep — and across the fresh
#: per-task executors a campaign pool builds — so each is planned once per
#: process.
_PLAN_CACHE: Dict[Tuple, _SequencePlan] = {}
_PLAN_CACHE_LIMIT = 16384


def _sequence_plans(sequences: Sequence[RBSequence], n: int,
                    include_decoherence: bool) -> List[_SequencePlan]:
    """The :class:`_SequencePlan` of each of ``sequences`` (on ``n`` qubits).

    Plans of shared sequences come from the memo; every other plan is
    built in one batched pass, and the shared ones among them memoized.
    """
    keys = [None if seq.cache_token is None
            else (seq.cache_token, include_decoherence) for seq in sequences]
    plans = [None if key is None else _PLAN_CACHE.get(key) for key in keys]
    todo = [b for b, plan in enumerate(plans) if plan is None]
    if todo:
        built = _build_plans([sequences[b] for b in todo], n,
                             include_decoherence)
        for b, plan in zip(todo, built):
            plans[b] = plan
            if keys[b] is not None:
                if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
                    _PLAN_CACHE.clear()
                _PLAN_CACHE[keys[b]] = plan
    return plans


def _build_plans(sequences: Sequence[RBSequence], n: int,
                 include_decoherence: bool) -> List[_SequencePlan]:
    """Build the plans of ``sequences`` together, one numpy pass each step.

    A site's x-map is the x-columns of the GF(2) product of every gate
    after it (the x-part of a pushed Pauli is linear in its input bits and
    phases never matter for survival).  That product splits into the
    suffix *within* the site's Clifford element, which the group keeps per
    element (:meth:`~repro.rb.clifford.CliffordGroup.gate_table`), and the
    tail product of the elements after it.  Tails are built right-aligned
    — position ``d`` is the ``d``-th layer from a sequence's end — with one
    stacked product per position over the sequences still running, longest
    first so those are a prefix, as
    :meth:`~repro.rb.clifford.CliffordGroup.product_inverses` advances its
    rows.  Sites are then put in product order by one stable sort on
    (sequence, class rank), and every array is sliced per sequence.
    """
    group = clifford_group(n)
    num_seqs = len(sequences)
    num_layers = np.array([seq.length + 1 for seq in sequences])
    layer_start = np.cumsum(num_layers) - num_layers
    layer_seq = np.repeat(np.arange(num_seqs), num_layers)
    element = np.array([el.index for seq in sequences
                        for el in (*seq.elements, seq.inverse)])
    total = len(element)
    from_end = (layer_start + num_layers - 1)[layer_seq] - np.arange(total)

    # tails[d, r]: x-columns of the product of the last d layers of the
    # r-th longest sequence.  int64 products wrap modulo 2**64, which keeps
    # parity, so one reduction mod 2 at the end gives the GF(2) products.
    order = np.argsort(-num_layers, kind="stable")
    row = np.empty(num_seqs, dtype=np.intp)
    row[order] = np.arange(num_seqs)
    aligned = np.zeros((num_layers.max(), num_seqs), dtype=np.intp)
    aligned[from_end, row[layer_seq]] = element
    mats = group.stacked_tableaux()[0]
    tails = np.empty((num_layers.max(), num_seqs, 2 * n, n), dtype=np.int64)
    tails[0] = np.eye(2 * n, dtype=np.int64)[:, :n]
    running = np.searchsorted(-num_layers[order],
                              -np.arange(1, num_layers.max()), side="left")
    for d, live in enumerate(running.tolist()):
        np.matmul(mats[aligned[d, :live]], tails[d, :live],
                  out=tails[d + 1, :live])
    # ... and per layer k, in (sequence, layer) order: the tail after k.
    tails = tails[from_end, row[layer_seq]] & 1

    layer_gates, gate_class, suffixes = group.gate_table(element)
    gate_layer = np.repeat(np.arange(total), layer_gates)
    gate_seq = layer_seq[gate_layer]
    layer_cx = np.bincount(gate_layer[gate_class == 0], minlength=total)
    code_of = 1 << np.arange(2 * n * n)
    gate_code = ((suffixes @ tails[gate_layer]) & 1).reshape(
        len(gate_layer), 2 * n * n) @ code_of

    # Product order: CNOTs first (rank 0), then each local qubit's 1q gates
    # in order of that qubit's first gate (ranks 1..n), then the idle kick
    # classes (rank = class id).
    classes = 1 + 4 * n
    # first[s, c]: index of sequence s's first gate of class c (past the
    # last gate when it has none).
    first = np.full((num_seqs, 1 + n), len(gate_class))
    present, first_gate = np.unique(gate_seq * (1 + n) + gate_class,
                                    return_index=True)
    first.flat[present] = first_gate
    rank = np.zeros((num_seqs, 1 + n), dtype=np.int64)
    rank[:, 1:] = 1 + (first[:, None, 1:] < first[:, 1:, None]).sum(axis=2)
    site_seq = [gate_seq]
    site_rank = [rank[gate_seq, gate_class]]
    site_class = [gate_class]
    site_layer = [gate_layer]
    site_code = [gate_code]
    if include_decoherence:
        # An idle kick after layer k sees the tail after layer k.
        idle_classes = np.arange(1 + n, classes)
        idle_class = np.repeat(idle_classes, total)
        idle_layer = np.tile(np.arange(total), len(idle_classes))
        site_seq.append(layer_seq[idle_layer])
        site_rank.append(idle_class)
        site_class.append(idle_class)
        site_layer.append(idle_layer)
        site_code.append(np.tile(tails.reshape(total, -1) @ code_of,
                                 len(idle_classes)))
    key = np.concatenate(site_seq) * classes + np.concatenate(site_rank)
    order = np.argsort(key, kind="stable")
    site_class = np.concatenate(site_class)[order]
    site_layer = np.concatenate(site_layer)[order]
    weights = _walsh_table(n)[site_class, np.concatenate(site_code)[order]]
    site_class = site_class.astype(np.int8)
    site_layer = (site_layer - layer_start[layer_seq[site_layer]]).astype(
        np.int32)
    per_class = np.bincount(key, minlength=num_seqs * classes).reshape(
        num_seqs, classes)
    class_sizes = per_class[per_class > 0]

    ends = zip(*(np.cumsum(count).tolist() for count in (
        num_layers, per_class.sum(axis=1), (per_class > 0).sum(axis=1))))
    plans = []
    starts = (0, 0, 0)
    for stops in ends:
        layers, sites, sizes = map(slice, starts, stops)
        plans.append(_SequencePlan(
            layer_cx=layer_cx[layers],
            layer_gates=layer_gates[layers],
            site_class=site_class[sites],
            site_layer=site_layer[sites],
            weights=weights[sites],
            class_sizes=class_sizes[sizes],
        ))
        starts = stops
    return plans


Target = Tuple[int, ...]  # one benchmarked gate: (q,) or a coupling edge


def normalize_target(gate: Sequence[int]) -> Target:
    """Canonical form of a benchmark target: a qubit or a coupling edge."""
    target = tuple(sorted(int(q) for q in gate))
    if len(target) not in (1, 2):
        raise ValueError(f"targets are single qubits or edges, got {gate}")
    if len(target) == 2 and target[0] == target[1]:
        raise ValueError(f"degenerate edge {gate}")
    return target


@dataclass(frozen=True)
class RBConfig:
    """Experiment sizing.

    The paper uses 100 sequences x 1024 trials with up to 40 Cliffords;
    the defaults here are scaled down so full-device campaigns run in
    minutes on a laptop, while ``paper()`` restores the published sizing.

    ``estimate`` picks the survival estimator:

    * ``"exact"`` (default) — for each random sequence, the survival
      probability is computed *exactly* over the error randomness: every
      injected Pauli propagates through the suffix Clifford tableau, the
      final state is a Pauli-displaced basis state, and the displacement's
      x-part distribution is an XOR-convolution over Z_2^2 evaluated with
      a 4-point Walsh-Hadamard characteristic function.  Zero Monte-Carlo
      variance; only sequence sampling (and optional shot) noise remains.
      Each sequence is reduced once to a probability-free *plan* (per-layer
      CNOT and gate counts, every error site's layer and Walsh weights),
      memoized under the shared sequence's ``cache_token``; an experiment
      builds all of its new plans in one batched pass, then scores all
      ``len(lengths) x num_sequences`` sequence sets in one numpy pass
      over every error site.
    * ``"exact-scalar"`` — the pre-vectorization reference implementation
      of the exact estimator: identical mathematics, one Python loop
      iteration per gate and error site.  Kept as the parity reference the
      regression tests (and the perf benchmark's serial leg) compare
      against.
    * ``"sampled"`` — reference implementation: Monte-Carlo error
      realizations simulated gate by gate on the stabilizer simulator
      (``samples_per_sequence`` realizations per sequence).

    ``share_sequences`` (default on) draws each experiment's random
    Cliffords from :func:`~repro.rb.sequences.shared_rb_sequences` — one
    stably generated sequence per (length, repeat index, slot, sweep)
    reused across every experiment of the pair sweep — instead of
    regenerating from the per-experiment stream.  An experiment requests
    all of its keys at once, and the ones not yet memoized are generated
    together in one lockstep tableau pass.  Survival statistics are
    unchanged (sequences are still uniform random Cliffords); only the
    generation cost is amortized.  Turn it off to reproduce the
    historical independent-sequences protocol (the perf benchmark's
    serial leg does, as the honest pre-change configuration).

    Every target's mean survival curve is then fitted to ``A f**m + B``
    by :func:`~repro.rb.fitting.fit_rb_decays`, all targets of an
    experiment in one call.
    """

    lengths: Tuple[int, ...] = (2, 4, 8, 16, 28, 40)
    num_sequences: int = 20
    samples_per_sequence: int = 12  # used by the "sampled" estimator only
    estimate: str = "exact"
    shots: Optional[int] = None  # None = exact survival (no shot noise)
    share_sequences: bool = True
    #: Charge T1/T2 for the time a unit idles waiting for the longest unit
    #: of an aligned layer.  Off by default: on hardware, simultaneous RB
    #: sequences free-run without alignment barriers, and decoherence during
    #: gates is already part of what a calibrated gate error rate measures.
    include_decoherence: bool = False
    include_single_qubit_errors: bool = True

    def __post_init__(self):
        # Checked here, so a malformed sizing fails where it is written
        # rather than inside the first experiment, after simulation work.
        if len(self.lengths) < 3:
            raise ValueError("need at least three lengths for a stable fit")
        if min(self.lengths) < 1:
            raise ValueError("RB length must be at least 1")
        if self.num_sequences < 1:
            raise ValueError("need at least one sequence per length")
        if self.estimate not in ("exact", "exact-scalar", "sampled"):
            raise ValueError(f"unknown estimate mode {self.estimate!r}")

    @classmethod
    def fast(cls) -> "RBConfig":
        return cls(lengths=(2, 8, 20), num_sequences=8)

    @classmethod
    def paper(cls) -> "RBConfig":
        """The published protocol: 100 sequences x 1024 trials.

        Shot sampling on top of the exact per-sequence survival reproduces
        the statistics a real 1024-trial experiment would see.
        """
        return cls(lengths=(2, 5, 10, 20, 30, 40), num_sequences=100,
                   shots=1024)

    def executions(self) -> int:
        """Hardware executions one experiment would take on a real device."""
        shots = self.shots if self.shots is not None else 1024
        return len(self.lengths) * self.num_sequences * shots


@dataclass
class SRBResult:
    """Per-edge survival curves and fits from one experiment set."""

    lengths: Tuple[int, ...]
    survivals: Dict[Target, List[float]]  # mean survival per length
    fits: Dict[Target, RBFit]
    context: Dict[Target, Tuple[Target, ...]]  # simultaneously driven targets

    def error_rate(self, gate: Sequence[int]) -> float:
        """Fitted physical-gate error rate for a target.

        Two-qubit targets: error per CNOT (Clifford error / 1.5, the
        paper's procedure).  Single-qubit targets: error per physical gate
        (Clifford error / the 1q group's average decomposition length).
        """
        target = normalize_target(gate)
        fit = self.fits[target]
        if len(target) == 2:
            return fit.error_per_cnot()
        avg_gates = clifford_group(1).average_gate_count()
        return fit.error_per_clifford / max(avg_gates, 1.0)


class RBExecutor:
    """Runs RB/SRB experiments against a device's hidden noise model.

    Seeding is *stable*: every experiment derives its RNG from a
    :class:`~numpy.random.SeedSequence` keyed on the device fingerprint,
    the day, the executor seed, and the experiment's target tuple — never
    from a shared stream.  Two executors with the same construction
    arguments therefore measure identical values for an experiment no
    matter in which order (or in which worker process) experiments run.
    """

    def __init__(self, device: Device, day: int = 0,
                 config: Optional[RBConfig] = None, seed: Optional[int] = None):
        self.device = device
        self.day = day
        self.config = config or RBConfig()
        self.base_seed = seed if seed is not None else device.seed * 104729 + day
        # Fallback stream for direct private-API callers (interleaved RB);
        # run_units never consumes it.
        self._rng = np.random.default_rng(self.base_seed)
        from repro.pipeline.cache import device_fingerprint

        self._fingerprint = device_fingerprint(device)
        #: Cumulative per-executor cost counters, in the same namespace the
        #: pipeline passes use; the characterization campaign snapshots
        #: these around each stage to report per-stage cost.
        self.counters: Dict[str, float] = {
            "rb.experiments": 0.0,
            "rb.units": 0.0,
            "rb.targets": 0.0,
            "rb.sequences": 0.0,
            "rb.seconds": 0.0,
        }

    def _experiment_rng(self, targets: Sequence[Target]) -> np.random.Generator:
        """The stable per-experiment stream (see class docstring)."""
        return stable_rng("rb.experiment", self._fingerprint, self.day,
                          self.base_seed, sorted(targets))

    # ------------------------------------------------------------------
    def run_units(self, units: Sequence[Sequence[Sequence[int]]]) -> SRBResult:
        """Run one experiment driving all ``units`` in parallel.

        ``units`` is a list of target tuples, e.g. ``[((0, 1), (2, 3)),
        ((6, 7),)]`` — one SRB pair and one independent RB unit.  Targets
        are coupling edges or single qubits (``((4,),)`` runs 1-qubit RB —
        the original simultaneous-RB "addressability" protocol [16]);
        targets across all units must be disjoint in qubits.
        """
        if not units:
            raise ValueError("an experiment needs at least one unit")
        if any(len(unit) == 0 for unit in units):
            raise ValueError("an experiment unit has no targets")
        started = time.perf_counter()
        targets: List[Target] = []
        for unit in units:
            for gate in unit:
                targets.append(normalize_target(gate))
        if len(set(targets)) != len(targets):
            raise ValueError("a target appears twice in the experiment")
        used_qubits = [q for t in targets for q in t]
        if len(set(used_qubits)) != len(used_qubits):
            raise ValueError("experiment units overlap in qubits")

        cfg = self.config
        rng = self._experiment_rng(targets)
        draws = [(li, si) for li in range(len(cfg.lengths))
                 for si in range(cfg.num_sequences)]
        shared = None
        if cfg.share_sequences:
            # Shared sequences leave the experiment stream to shot noise
            # (and sampled errors) alone, so every sequence set is fetched
            # up front in one request without reordering the stream.
            shared = self._shared_sequence_sets(
                targets, [(cfg.lengths[li], si) for li, si in draws])
        batch = None
        if shared is not None and cfg.estimate == "exact":
            batch = self._exact_survivals(targets, shared).tolist()
        survivals: Dict[Target, List[List[float]]] = {
            t: [[] for _ in cfg.lengths] for t in targets
        }
        for d, (li, si) in enumerate(draws):
            if batch is not None:
                means = dict(zip(targets, batch[d]))
            else:
                seqs = (shared[d] if shared is not None else
                        self._sequence_set(targets, cfg.lengths[li], si, rng))
                means = self._run_sequences(targets, seqs, rng)
            for t in targets:
                value = means[t]
                if cfg.shots is not None:
                    value = rng.binomial(cfg.shots, value) / cfg.shots
                survivals[t][li].append(value)

        mean_survivals = {
            t: [float(np.mean(vals)) for vals in survivals[t]] for t in targets
        }
        fits = dict(zip(targets, fit_rb_decays(
            cfg.lengths, [mean_survivals[t] for t in targets],
            [len(t) for t in targets])))
        context = {t: tuple(o for o in targets if o != t) for t in targets}
        seconds = time.perf_counter() - started
        sequences = float(len(targets) * len(cfg.lengths) * cfg.num_sequences)
        self.counters["rb.experiments"] += 1.0
        self.counters["rb.units"] += float(len(units))
        self.counters["rb.targets"] += float(len(targets))
        self.counters["rb.sequences"] += sequences
        self.counters["rb.seconds"] += seconds
        # Process-wide metrics too; inside a pool worker these land in the
        # worker-local registry and are shipped back as per-task deltas.
        registry = get_registry()
        registry.inc("rb.experiments")
        registry.inc("rb.sequences", sequences)
        registry.observe("rb.experiment_seconds", seconds)
        return SRBResult(cfg.lengths, mean_survivals, fits, context)

    def run_independent(self, gate: Sequence[int]) -> SRBResult:
        """Standard RB on one target (edge or qubit), nothing else driven."""
        return self.run_units([(gate,)])

    def run_pair(self, gate_a: Sequence[int], gate_b: Sequence[int]) -> SRBResult:
        """Simultaneous RB on a pair of gates: yields E(a|b) and E(b|a)."""
        return self.run_units([(gate_a, gate_b)])

    # ------------------------------------------------------------------
    def _sequence_set(self, targets: List[Target], length: int, index: int,
                      rng: np.random.Generator) -> Dict[Target, RBSequence]:
        """One random sequence per target for repeat ``index`` at ``length``."""
        if self.config.share_sequences:
            return self._shared_sequence_sets(targets, [(length, index)])[0]
        return {
            t: generate_rb_sequence(clifford_group(len(t)), length, rng)
            for t in targets
        }

    def _shared_sequence_sets(self, targets: List[Target],
                              shapes: Sequence[Tuple[int, int]]
                              ) -> List[Dict[Target, RBSequence]]:
        """The shared sequence sets for ``(length, repeat index)`` shapes.

        Amortized path: one stably generated sequence per (n, length,
        repeat, slot) reused across the sweep, every key of the request
        generated in one :func:`~repro.rb.sequences.shared_rb_sequences`
        call; the experiment stream is not consumed.
        """
        seed_class = (self._fingerprint, self.day, self.base_seed)
        slots = sorted(targets)
        keys = [(len(t), length, index, slots.index(t), seed_class)
                for length, index in shapes for t in targets]
        sequences = iter(shared_rb_sequences(keys))
        return [{t: next(sequences) for t in targets} for _ in shapes]

    def _run_sequences(self, edges: List[Edge],
                       seqs: Dict[Edge, RBSequence],
                       rng: Optional[np.random.Generator] = None
                       ) -> Dict[Edge, float]:
        """Mean survival per edge over the error randomness."""
        if self.config.estimate == "exact":
            return dict(zip(edges, self._exact_survivals(edges, [seqs])[0]
                            .tolist()))
        if self.config.estimate == "exact-scalar":
            return self._run_sequences_exact_scalar(edges, seqs)
        return self._run_sequences_sampled(edges, seqs,
                                           rng if rng is not None
                                           else self._rng)

    def _sequence_context(self, targets: List[Target],
                          seqs: Dict[Target, RBSequence]):
        """Per-layer structure shared by both estimators: aligned layers,
        which edges drive CNOTs per layer, the resulting conditional CNOT
        error rates, and per-layer idle durations.

        Single-qubit targets never condition anyone's error rates (the
        paper's observation that 1q gates are 10x cleaner, and the device
        model's ground truth); only two-qubit targets participate in the
        crosstalk bookkeeping.
        """
        cfg = self.config
        cal = self.device.calibration(self.day)
        crosstalk = self.device.crosstalk

        layers = {t: seqs[t].layers() for t in targets}
        depth = max(len(l) for l in layers.values())
        two_qubit_targets = [t for t in targets if len(t) == 2]

        # drives[i, k]: does two-qubit target i fire a CNOT in layer k?
        drives = np.zeros((len(two_qubit_targets), depth), dtype=bool)
        for i, t in enumerate(two_qubit_targets):
            target_layers = layers[t]
            drives[i, :len(target_layers)] = [
                any(name == "cx" for name, _ in layer)
                for layer in target_layers
            ]
        # The conditional rate of target i depends only on *which* other
        # targets drive alongside it, so layers sharing a driving pattern
        # share one crosstalk-model lookup.
        pattern_rate: Dict[Tuple[int, bytes], float] = {}
        cx_error: List[Dict[Target, float]] = []
        for k in range(depth):
            pattern = drives[:, k].tobytes()
            drivers = np.flatnonzero(drives[:, k])
            rates = {}
            for i, t in enumerate(two_qubit_targets):
                key = (i, pattern)
                if key not in pattern_rate:
                    partners = [two_qubit_targets[j] for j in drivers if j != i]
                    pattern_rate[key] = crosstalk.worst_conditional_error(
                        t, partners, cal, self.day
                    )
                rates[t] = pattern_rate[key]
            cx_error.append(rates)

        unit_duration: Dict[Target, List[float]] = {t: [] for t in targets}
        layer_duration: List[float] = []
        if cfg.include_decoherence:
            durations = np.zeros((len(targets), depth))
            single = cal.durations.single_qubit
            for i, t in enumerate(targets):
                cx_duration = (
                    cal.durations.cx_duration(*t) if len(t) == 2 else 0.0
                )
                for k, layer in enumerate(layers[t]):
                    cx_count = sum(1 for name, _ in layer if name == "cx")
                    durations[i, k] = (
                        cx_count * cx_duration
                        + (len(layer) - cx_count) * single
                    )
            layer_duration = durations.max(axis=0).tolist()
            unit_duration = {
                t: durations[i].tolist() for i, t in enumerate(targets)
            }
        return layers, depth, cx_error, unit_duration, layer_duration

    # ------------------------------------------------------------------
    # exact estimator
    # ------------------------------------------------------------------
    def _exact_survivals(self, targets: List[Target],
                         seq_sets: List[Dict[Target, RBSequence]]
                         ) -> np.ndarray:
        """Exact expected survivals, ``(len(seq_sets), len(targets))``.

        Each target's n-qubit system (n = 1 or 2) evolves independently
        (error Paulis are local to the target; only their *rates* depend on
        the partners), so the survival factorizes per target.  For one
        target, the final state under a given error realization is
        ``P |0..0>`` with ``P`` the product of all injected Paulis
        conjugated by their suffix Cliffords; survival is the indicator
        that ``P`` has no X/Y component.  The x-part of each (independent)
        error site is a random element of Z_2^n, so the XOR-sum's point
        probability at 0 is the average over the 2^n Walsh characters of
        the product of per-site factors ``(1 - p) + p * W``.

        ``W`` comes from each sequence's :class:`_SequencePlan`; only the
        probabilities ``p`` depend on the experiment.  The sets' aligned
        layers are laid end to end, each CNOT site's rate is looked up by
        which two-qubit targets drive its layer, and every site of every
        set is scored in one pass: per-class products, then per-(set,
        target) products in the plan's class order — the order
        :meth:`_run_sequences_exact_scalar`, the parity reference,
        multiplies in.
        """
        cfg = self.config
        cal = self.device.calibration(self.day)
        plans = [[None] * len(targets) for _ in seq_sets]
        batches = {}  # n -> (set, target) rows and their plans
        for n in (1, 2):
            rows = [(s, i) for s in range(len(seq_sets))
                    for i, t in enumerate(targets) if len(t) == n]
            if not rows:
                continue
            batches[n] = (rows, _sequence_plans(
                [seq_sets[s][targets[i]] for s, i in rows], n,
                cfg.include_decoherence))
            for (s, i), plan in zip(*batches[n]):
                plans[s][i] = plan
        depth = [max(len(plan.layer_gates) for plan in row) for row in plans]
        offset = np.cumsum([0] + depth[:-1])
        cx_count = np.zeros((len(targets), sum(depth)))
        gate_count = np.zeros_like(cx_count)
        for s, row in enumerate(plans):
            for i, plan in enumerate(row):
                span = slice(offset[s], offset[s] + len(plan.layer_gates))
                cx_count[i, span] = plan.layer_cx
                gate_count[i, span] = plan.layer_gates
        cx_rate = self._cnot_rates(targets, cx_count > 0, cal)
        idle_prob = None
        if cfg.include_decoherence:
            idle_prob = self._idle_probabilities(targets, cx_count,
                                                 gate_count, cal)
        gate_error = np.zeros((len(targets), 2))  # 1q gate error per local
        if cfg.include_single_qubit_errors:
            for i, t in enumerate(targets):
                gate_error[i, :len(t)] = [cal.single_qubit_error[q] for q in t]

        out = np.empty((len(plans), len(targets)))
        for n, (rows, row_plans) in batches.items():
            cols = [i for i, t in enumerate(targets) if len(t) == n]
            sizes = [len(plan.site_class) for plan in row_plans]
            site_class = np.concatenate([p.site_class for p in row_plans])
            layer = (np.concatenate([p.site_layer for p in row_plans])
                     + np.repeat([offset[s] for s, _ in rows], sizes))
            target = np.repeat([i for _, i in rows], sizes)
            prob = np.zeros(len(site_class))
            cnot = site_class == 0
            prob[cnot] = cx_rate[target[cnot], layer[cnot]]
            gate = (site_class >= 1) & (site_class <= n)
            prob[gate] = gate_error[target[gate], site_class[gate] - 1]
            if idle_prob is not None:
                idle = site_class > n
                prob[idle] = idle_prob[target[idle], site_class[idle] - 1 - n,
                                       layer[idle]]
            weights = np.concatenate([p.weights for p in row_plans])
            factors = (1.0 - prob)[:, None] + prob[:, None] * weights
            # Zero-probability factors are exactly 1, so sites the scalar
            # reference skips leave every product bit unchanged.
            chi = np.ones((len(rows), 2 ** n))
            class_sizes = np.concatenate([p.class_sizes for p in row_plans])
            if len(class_sizes):
                per_class = np.multiply.reduceat(
                    factors, np.cumsum(class_sizes) - class_sizes, axis=0)
                classes = np.array([len(p.class_sizes) for p in row_plans])
                has = classes > 0
                chi[has] = np.multiply.reduceat(
                    per_class, (np.cumsum(classes) - classes)[has], axis=0)
            out[:, cols] = np.clip(chi.mean(axis=1), 0.0, 1.0).reshape(
                len(plans), len(cols))
        return out

    def _cnot_rates(self, targets: List[Target], drives: np.ndarray,
                    cal) -> np.ndarray:
        """Conditional CNOT error per (target, aligned layer).

        ``drives[i, k]`` says whether target ``i`` fires a CNOT in layer
        ``k``.  A target's rate depends only on *which* other two-qubit
        targets drive alongside it, so each distinct driving pattern costs
        one crosstalk-model lookup per driver.  Single-qubit targets never
        condition anyone's error rates (the paper's observation that 1q
        gates are 10x cleaner, and the device model's ground truth).
        """
        crosstalk = self.device.crosstalk
        rate = np.zeros(drives.shape)
        pairs = [i for i, t in enumerate(targets) if len(t) == 2]
        if not pairs:
            return rate
        patterns, pattern_of = np.unique(drives[pairs], axis=1,
                                         return_inverse=True)
        by_pattern = np.zeros(patterns.shape)
        for u in range(patterns.shape[1]):
            drivers = np.flatnonzero(patterns[:, u])
            for j in drivers:
                partners = [targets[pairs[o]] for o in drivers if o != j]
                by_pattern[j, u] = crosstalk.worst_conditional_error(
                    targets[pairs[j]], partners, cal, self.day)
        rate[pairs] = by_pattern[:, pattern_of.reshape(-1)]
        return rate

    def _idle_probabilities(self, targets: List[Target], cx_count: np.ndarray,
                            gate_count: np.ndarray, cal) -> np.ndarray:
        """Twirled decoherence kick probabilities per (target, kick, layer).

        Kick ``3 l + k`` is Pauli ``k`` (X, Y, Z) on local qubit ``l``; a
        target idles for the gap between its own busy time and the longest
        target's in each aligned layer; gaps of at most 1e-9 ns charge
        nothing.
        """
        durations = cal.durations
        cx_duration = np.array([
            durations.cx_duration(*t) if len(t) == 2 else 0.0 for t in targets
        ])
        busy = (cx_count * cx_duration[:, None]
                + (gate_count - cx_count) * durations.single_qubit)
        idle = busy.max(axis=0) - busy
        probs = np.zeros((len(targets), 6, idle.shape[1]))
        for i, t in enumerate(targets):
            waiting = idle[i] > 1e-9
            gaps, gap_of = np.unique(idle[i, waiting], return_inverse=True)
            for local, q in enumerate(t):
                decay = np.array([
                    decay_probabilities(gap, cal.t1[q], cal.t2[q])
                    for gap in gaps
                ]).reshape(-1, 2)
                p_x = decay[:, 0] / 4.0
                p_z = decay[:, 0] / 4.0 + decay[:, 1]
                for k, p in enumerate((p_x, p_x, p_z)):
                    probs[i, 3 * local + k, waiting] = p[gap_of]
        return probs

    def _run_sequences_exact_scalar(
            self, targets: List[Target],
            seqs: Dict[Target, RBSequence]) -> Dict[Target, float]:
        """Scalar reference for :meth:`_run_sequences_exact`.

        The pre-vectorization implementation, retained verbatim: one loop
        iteration per gate and per error site.  The parity regression test
        pins the vectorized path to this one at 1e-12.
        """
        from repro.rb.clifford import _gate_tableau

        cfg = self.config
        cal = self.device.calibration(self.day)
        layers, depth, cx_error, unit_duration, layer_duration = \
            self._sequence_context(targets, seqs)

        out: Dict[Target, float] = {}
        for e in targets:
            n = len(e)
            signs = _WALSH[n]
            idle_span = tuple(range(n))
            gates: List[Tuple[str, Tuple[int, ...], int]] = []
            for k in range(len(layers[e])):
                for name, qs in layers[e][k]:
                    gates.append((name, qs, k))
                if cfg.include_decoherence:
                    gates.append(("__idle__", idle_span, k))
            suffix_mats = [None] * (len(gates) + 1)
            suffix_mats[len(gates)] = np.eye(2 * n, dtype=np.uint8)
            for t in range(len(gates) - 1, -1, -1):
                name, qs, _ = gates[t]
                if name == "__idle__":
                    suffix_mats[t] = suffix_mats[t + 1]
                else:
                    gate_mat = _gate_tableau(n, name, qs).mat
                    suffix_mats[t] = (gate_mat @ suffix_mats[t + 1]) % 2

            chi = np.ones(2 ** n)
            for t, (name, qs, k) in enumerate(gates):
                sites = self._error_sites(name, qs, k, e, cx_error,
                                          unit_duration, layer_duration, cal)
                x_map = suffix_mats[t + 1][:, :n]  # (x|z) bits -> out x bits
                for pauli_bits, prob in sites:
                    if prob <= 0.0:
                        continue
                    bits = np.asarray(
                        [(*x, *z) for x, z in pauli_bits], dtype=np.uint8
                    )
                    out_x = (bits @ x_map) % 2
                    idx = out_x[:, 0]
                    if n == 2:
                        idx = idx + 2 * out_x[:, 1]
                    q_dist = np.bincount(idx, minlength=2 ** n) / len(pauli_bits)
                    chi *= (1.0 - prob) + prob * (signs @ q_dist)
            out[e] = float(np.clip(chi.mean(), 0.0, 1.0))
        return out

    def _error_sites(self, name, qs, layer, target, cx_error, unit_duration,
                     layer_duration, cal):
        """Error channels attached to one flattened gate position.

        Returns a list of ``(pauli_support, probability)`` where
        ``pauli_support`` is the uniform set of (x_bits, z_bits) the error
        draws from, over the target's local qubits.
        """
        cfg = self.config
        n = len(target)
        if name == "cx":
            return [(_PAULI_2Q_BITS, cx_error[layer][target])]
        if name == "__idle__":
            if not cfg.include_decoherence:
                return []
            idle = layer_duration[layer] - unit_duration[target][layer]
            if idle <= 1e-9:
                return []
            sites = []
            for local in range(n):
                q_device = target[local]
                gamma, p_z_pure = decay_probabilities(
                    idle, cal.t1[q_device], cal.t2[q_device]
                )
                p_x = p_y = gamma / 4.0
                p_z = gamma / 4.0 + p_z_pure
                # three mutually exclusive Paulis; encode as three sites
                # with single-element supports (independent-site
                # approximation, exact to first order like the sampler)
                sites.append(([_pauli_bits_n("X", local, n)], p_x))
                sites.append(([_pauli_bits_n("Y", local, n)], p_y))
                sites.append(([_pauli_bits_n("Z", local, n)], p_z))
            return sites
        if cfg.include_single_qubit_errors:
            p = cal.single_qubit_error[target[qs[0]]]
            labels = [_pauli_bits_n(ch, qs[0], n) for ch in "XYZ"]
            return [(labels, p)]
        return []

    # ------------------------------------------------------------------
    # sampled (reference) estimator
    # ------------------------------------------------------------------
    def _run_sequences_sampled(self, edges: List[Edge],
                               seqs: Dict[Edge, RBSequence],
                               rng: np.random.Generator) -> Dict[Edge, float]:
        """Monte-Carlo mean survival per edge over error realizations."""
        cfg = self.config
        cal = self.device.calibration(self.day)

        qubit_map: Dict[int, int] = {}
        for e in edges:
            for q in e:
                qubit_map.setdefault(q, len(qubit_map))
        num_sim_qubits = len(qubit_map)

        layers, depth, cx_error, unit_duration, layer_duration = \
            self._sequence_context(edges, seqs)

        totals = {e: 0.0 for e in edges}
        for _ in range(cfg.samples_per_sequence):
            sim = StabilizerSimulator(num_sim_qubits, rng=rng)
            for k in range(depth):
                for e in edges:
                    if k >= len(layers[e]):
                        continue
                    local = tuple(qubit_map[q] for q in e)
                    for name, qs in layers[e][k]:
                        mapped = tuple(local[q] for q in qs)
                        sim.apply_gate(name, mapped)
                        if name == "cx":
                            p = cx_error[k][e]
                            if p > 0.0 and rng.random() < p:
                                label = _PAULI_2Q[rng.integers(len(_PAULI_2Q))]
                                sim.apply_pauli(label, mapped)
                        elif cfg.include_single_qubit_errors:
                            p = cal.single_qubit_error[e[qs[0]]]
                            if p > 0.0 and rng.random() < p:
                                label = _PAULI_1Q[rng.integers(3)]
                                sim.apply_pauli(label, (mapped[0],))
                if cfg.include_decoherence:
                    for e in edges:
                        if k >= len(layers[e]):
                            continue
                        idle = layer_duration[k] - unit_duration[e][k]
                        if idle > 1e-9:
                            for q in e:
                                self._inject_decay(sim, rng, qubit_map[q],
                                                   idle, cal.t1[q], cal.t2[q])
            for e in edges:
                outcome = {qubit_map[q]: 0 for q in e}
                totals[e] += sim.probability_of_outcome(outcome)
        return {e: totals[e] / cfg.samples_per_sequence for e in edges}

    # ------------------------------------------------------------------
    def _inject_decay(self, sim: StabilizerSimulator, rng: np.random.Generator,
                      qubit: int, duration: float, t1: float, t2: float) -> None:
        gamma, p_z_pure = decay_probabilities(duration, t1, t2)
        # Pauli twirl of amplitude damping: X, Y with gamma/4; the phase
        # component contributes gamma/4 plus the pure-dephasing Z rate.
        p_x = p_y = gamma / 4.0
        p_z = gamma / 4.0 + p_z_pure
        r = rng.random()
        if r < p_x:
            sim.apply_pauli("X", (qubit,))
        elif r < p_x + p_y:
            sim.apply_pauli("Y", (qubit,))
        elif r < p_x + p_y + p_z:
            sim.apply_pauli("Z", (qubit,))
