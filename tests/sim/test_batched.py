"""Backend output does not depend on the worker count.

``NoisyBackend(workers=)`` is still accepted but no longer affects
execution: every run evolves one exact density matrix in the calling
process.  A backend built at worker counts {1, 2, 4} therefore returns
bitwise-identical probabilities and identical counts.
"""

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.device.backend import NoisyBackend


class TestBackendWorkerCounts:
    def _bell(self, device):
        qc = QuantumCircuit(device.num_qubits, 2, "bell")
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0, 0)
        qc.measure(1, 1)
        return qc

    def test_bitwise_identical_across_worker_counts(self, poughkeepsie):
        circuit = self._bell(poughkeepsie)
        reference = NoisyBackend(poughkeepsie, day=0, seed=29,
                                 workers=1).run(circuit, shots=64)
        for workers in (2, 4):
            got = NoisyBackend(poughkeepsie, day=0, seed=29,
                               workers=workers).run(circuit, shots=64)
            assert np.array_equal(reference.probabilities, got.probabilities)
            assert reference.counts == got.counts
