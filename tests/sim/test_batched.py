"""Batched-vs-scalar trajectory parity and bitwise batch invariance.

The contract the backend's determinism story rests on (ISSUE 7):

* the batched engine and the ``engine="scalar"`` reference produce
  distributions agreeing to 1e-12 (they draw identical per-trajectory
  streams; only the floating-point evaluation strategy differs);
* the *accumulated* distribution of one engine is bitwise identical for
  every batch size — each trajectory's contribution depends only on its
  global index, and rows are summed sequentially;
* routed through the backend, probabilities are bitwise identical for
  worker counts {1, 2, 4}.
"""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.device.backend import (
    MAX_TRAJECTORY_CHUNK,
    MIN_TRAJECTORY_CHUNK,
    NoisyBackend,
    plan_trajectory_chunks,
)
from repro.obs.registry import get_registry
from repro.sim.trajectory import (
    BatchedTrajectorySimulator,
    NoisyOp,
    trajectory_seed,
)


def _noisy_ops():
    """A stream exercising every event type: unitaries, depolarizing
    errors on 1q and 2q gates, amplitude damping, and dephasing."""
    return [
        NoisyOp.gate("h", (0,)),
        NoisyOp.gate("cx", (0, 1), error_prob=0.05),
        NoisyOp.decay(0, 0.04, 0.02),
        NoisyOp.gate("rz", (1,), params=(0.7,), error_prob=0.03),
        NoisyOp.decay(1, 0.05, 0.0),
        NoisyOp.gate("cx", (1, 2), error_prob=0.08),
        NoisyOp.decay(2, 0.0, 0.06),
        NoisyOp.gate("x", (2,)),
        NoisyOp.gate("cx", (0, 2), error_prob=0.02),
    ]


class TestEngineParity:
    def test_scalar_batched_parity_1e12(self):
        ops = _noisy_ops()
        batched = BatchedTrajectorySimulator(3, seed=17)
        scalar = BatchedTrajectorySimulator(3, seed=17, engine="scalar")
        b = batched.accumulate(ops, [0, 1, 2], 64)
        s = scalar.accumulate(ops, [0, 1, 2], 64)
        assert np.max(np.abs(b - s)) < 1e-12

    def test_decay_statistics_parity_1e12(self):
        # Decay-only stream: expectation values (P(1) per qubit) from the
        # two engines must agree to 1e-12 trajectory for trajectory.
        ops = [
            NoisyOp.gate("h", (0,)),
            NoisyOp.gate("h", (1,)),
            NoisyOp.decay(0, 0.3, 0.1),
            NoisyOp.decay(1, 0.15, 0.25),
            NoisyOp.decay(0, 0.2, 0.0),
        ]
        batched = BatchedTrajectorySimulator(2, seed=23)
        scalar = BatchedTrajectorySimulator(2, seed=23, engine="scalar")
        b = batched.output_distribution(ops, [0, 1], trajectories=200)
        s = scalar.output_distribution(ops, [0, 1], trajectories=200)
        assert np.max(np.abs(b - s)) < 1e-12
        # expectation value of each qubit being |1>
        for q in (0, 1):
            exp_b = sum(p for i, p in enumerate(b) if (i >> q) & 1)
            exp_s = sum(p for i, p in enumerate(s) if (i >> q) & 1)
            assert exp_b == pytest.approx(exp_s, abs=1e-12)

    def test_measured_qubit_reordering_matches(self):
        ops = _noisy_ops()
        batched = BatchedTrajectorySimulator(3, seed=5)
        scalar = BatchedTrajectorySimulator(3, seed=5, engine="scalar")
        b = batched.accumulate(ops, [2, 0], 32)
        s = scalar.accumulate(ops, [2, 0], 32)
        assert np.max(np.abs(b - s)) < 1e-12

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            BatchedTrajectorySimulator(2, engine="gpu")


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_bitwise_identical_across_batch_sizes(self, engine):
        ops = _noisy_ops()
        full = BatchedTrajectorySimulator(3, seed=11, engine=engine)
        reference = full.accumulate(ops, [0, 1, 2], 53)
        for batch_size in (1, 7, 32):
            sim = BatchedTrajectorySimulator(3, seed=11, engine=engine)
            got = sim.accumulate(ops, [0, 1, 2], 53, batch_size=batch_size)
            assert np.array_equal(got, reference), batch_size

    def test_trajectory_streams_keyed_on_global_index(self):
        root = np.random.SeedSequence(42)
        # The stream of trajectory i never depends on how many siblings
        # exist: it is a pure function of (root, i).
        a = np.random.default_rng(trajectory_seed(root, 5)).random(4)
        b = np.random.default_rng(trajectory_seed(root, 5)).random(4)
        c = np.random.default_rng(trajectory_seed(root, 6)).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_windowed_budget_matches_merge_order(self):
        # Splitting a budget into windows and merging in window order is
        # reproducible: the same plan gives the same bits every time.
        ops = _noisy_ops()
        sim = BatchedTrajectorySimulator(3, seed=11)
        plan = [(0, 20), (20, 20), (40, 13)]
        merged_1 = np.zeros(8)
        for start, count in plan:
            merged_1 += sim.accumulate(ops, [0, 1, 2], count,
                                       first_trajectory=start)
        merged_2 = np.zeros(8)
        for start, count in plan:
            merged_2 += sim.accumulate(ops, [0, 1, 2], count,
                                       first_trajectory=start)
        assert np.array_equal(merged_1, merged_2)

    def test_batch_metrics_recorded(self):
        registry = get_registry()
        before = registry.snapshot()["counters"].get("sim.batch.batches", 0.0)
        sim = BatchedTrajectorySimulator(2, seed=1)
        sim.accumulate([NoisyOp.gate("h", (0,))], [0], 20, batch_size=8)
        after = registry.snapshot()["counters"]["sim.batch.batches"]
        assert after - before == 3.0  # 8 + 8 + 4


class TestChunkPlanner:
    def test_small_budget_is_single_chunk(self):
        assert plan_trajectory_chunks(40, 2) == [(0, 40)]
        assert plan_trajectory_chunks(1, 20) == [(0, 1)]

    def test_plan_covers_budget_without_overlap(self):
        for trajectories in (1, 16, 255, 256, 257, 600, 1000):
            for n in (1, 2, 10, 18, 21):
                plan = plan_trajectory_chunks(trajectories, n)
                assert plan[0][0] == 0
                assert sum(count for _, count in plan) == trajectories
                for (s0, c0), (s1, _) in zip(plan, plan[1:]):
                    assert s1 == s0 + c0

    def test_chunk_size_shrinks_with_qubit_count(self):
        wide = plan_trajectory_chunks(1000, 2)   # 2**21 >> 2 caps at 256
        narrow = plan_trajectory_chunks(1000, 18)  # 2**21 >> 18 = 8 -> 16
        assert wide[0][1] == MAX_TRAJECTORY_CHUNK
        assert narrow[0][1] == MIN_TRAJECTORY_CHUNK

    def test_plan_never_depends_on_worker_count(self):
        # The planner takes no worker argument at all; assert the plan is
        # a pure function of its two inputs.
        assert plan_trajectory_chunks(600, 2) == plan_trajectory_chunks(600, 2)

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            plan_trajectory_chunks(0, 2)


class TestBackendWorkerCounts:
    def _bell(self, device):
        qc = QuantumCircuit(device.num_qubits, 2, "bell")
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0, 0)
        qc.measure(1, 1)
        return qc

    def test_bitwise_identical_across_worker_counts(self, poughkeepsie):
        backend = NoisyBackend(poughkeepsie, day=0, seed=29)
        circuit = self._bell(poughkeepsie)
        # 600 trajectories = 3 chunks at the bell circuit's chunk size, so
        # multi-worker runs genuinely fan out.
        reference = backend.run(circuit, shots=64, trajectories=600,
                                workers=1)
        for workers in (2, 4):
            got = backend.run(circuit, shots=64, trajectories=600,
                              workers=workers)
            assert np.array_equal(reference.probabilities, got.probabilities)
            assert reference.counts == got.counts

    def test_engine_gauge_recorded(self, poughkeepsie):
        backend = NoisyBackend(poughkeepsie, day=0, seed=29)
        backend.run(self._bell(poughkeepsie), shots=16, trajectories=8)
        assert get_registry().snapshot()["gauges"]["sim.engine"] == 1.0

    def test_scalar_engine_backend_parity(self, poughkeepsie):
        circuit = self._bell(poughkeepsie)
        batched = NoisyBackend(poughkeepsie, day=0, seed=29)
        scalar = NoisyBackend(poughkeepsie, day=0, seed=29,
                              sim_engine="scalar")
        b = batched.run(circuit, shots=64, trajectories=48)
        s = scalar.run(circuit, shots=64, trajectories=48)
        assert np.max(np.abs(b.probabilities - s.probabilities)) < 1e-12

    def test_unknown_sim_engine_rejected(self, poughkeepsie):
        with pytest.raises(ValueError, match="unknown sim engine"):
            NoisyBackend(poughkeepsie, sim_engine="gpu")
