"""The three 20-qubit IBMQ devices used in the paper's evaluation.

Coupling maps follow the published layouts; the planted crosstalk pairs are
synthetic but anchored to every quantitative fact the paper states (see
DESIGN.md §6):

* Poughkeepsie gets exactly 5 high-crosstalk pairs (Section 5.1), including
  the two pairs named in Figure 4 — (10,15)|(11,12) at the 11x worst case
  and (13,14)|(18,19) — all at 1 hop.
* Poughkeepsie's qubit 10 has <6 µs coherence (~10x below the device
  average), which drives the gate-ordering case study of Figure 6.
* Johannesburg and Boeblingen receive comparable synthetic pair sets (the
  paper does not enumerate theirs); Boeblingen gets the largest set, in
  line with its longer Figure 5c qubit-pair list.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.device.calibration import synthesize_calibration
from repro.device.crosstalk import CrosstalkModel, CrosstalkPair
from repro.device.device import Device
from repro.device.topology import CouplingMap, heavy_hex_coupling_map

# Rows 0-4 / 5-9 / 10-14 / 15-19 with seven vertical links (the published
# Poughkeepsie layout; also used for Johannesburg, whose drawing in the
# paper's Figure 3 is identical).  23 edges -> exactly the paper's 221
# simultaneously-drivable gate pairs.
_POUGHKEEPSIE_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4),
    (5, 6), (6, 7), (7, 8), (8, 9),
    (10, 11), (11, 12), (12, 13), (13, 14),
    (15, 16), (16, 17), (17, 18), (18, 19),
    (0, 5), (4, 9), (5, 10), (7, 12), (9, 14), (10, 15), (14, 19),
]

# The Boeblingen/Almaden 20-qubit layout: interleaved vertical rungs.
_BOEBLINGEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4),
    (5, 6), (6, 7), (7, 8), (8, 9),
    (10, 11), (11, 12), (12, 13), (13, 14),
    (15, 16), (16, 17), (17, 18), (18, 19),
    (1, 6), (3, 8), (5, 10), (7, 12), (9, 14), (11, 16), (13, 18),
]


def ibmq_poughkeepsie() -> Device:
    coupling = CouplingMap(20, _POUGHKEEPSIE_EDGES)
    calibration = synthesize_calibration(
        coupling,
        seed=11,
        slow_qubits={10: 5_800.0},  # the <6 us qubit of Figure 6
    )
    # Match the Figure 4 example: CNOT 10,15 independent error ~1%,
    # conditional ~11% with CNOT 11,12.
    calibration.cnot_error[(10, 15)] = 0.010
    calibration.cnot_error[(11, 12)] = 0.014
    calibration.cnot_error[(13, 14)] = 0.018
    calibration.cnot_error[(18, 19)] = 0.016
    # Five high-crosstalk pairs (Section 5.1), clustered around the middle
    # rows exactly as the paper's experiments imply: (10,15)|(11,12) and
    # (13,14)|(18,19) are the Figure 4 pairs; (5,10)|(11,12) drives the
    # Figure 6 SWAP-path case study; together with (7,12)|(13,14) and
    # (11,12)|(13,14) they make all four Figure 8/9 application regions
    # ([5,10,11,12], [7,12,13,14], [15,10,11,12], [11,12,13,14])
    # crosstalk-prone.
    pairs = [
        CrosstalkPair((10, 15), (11, 12), factor_a=11.0, factor_b=6.0),
        CrosstalkPair((13, 14), (18, 19), factor_a=7.0, factor_b=8.0),
        CrosstalkPair((5, 10), (11, 12), factor_a=6.0, factor_b=5.0),
        CrosstalkPair((7, 12), (13, 14), factor_a=6.0, factor_b=5.0),
        CrosstalkPair((11, 12), (13, 14), factor_a=5.0, factor_b=6.0),
    ]
    crosstalk = CrosstalkModel(coupling, pairs, seed=101)
    return Device("ibmq_poughkeepsie", coupling, calibration, crosstalk, seed=1)


def ibmq_johannesburg() -> Device:
    coupling = CouplingMap(20, _POUGHKEEPSIE_EDGES)
    calibration = synthesize_calibration(coupling, seed=23)
    pairs = [
        CrosstalkPair((0, 1), (2, 3), factor_a=6.0, factor_b=5.0),
        CrosstalkPair((5, 10), (11, 12), factor_a=8.0, factor_b=4.0),
        CrosstalkPair((8, 9), (13, 14), factor_a=5.0, factor_b=7.0),
        CrosstalkPair((6, 7), (8, 9), factor_a=4.0, factor_b=4.0),
        CrosstalkPair((16, 17), (18, 19), factor_a=6.0, factor_b=6.0),
        CrosstalkPair((0, 5), (10, 11), factor_a=5.0, factor_b=5.0),
    ]
    crosstalk = CrosstalkModel(coupling, pairs, seed=202)
    return Device("ibmq_johannesburg", coupling, calibration, crosstalk, seed=2)


def ibmq_boeblingen() -> Device:
    coupling = CouplingMap(20, _BOEBLINGEN_EDGES)
    calibration = synthesize_calibration(coupling, seed=37)
    pairs = [
        CrosstalkPair((1, 6), (7, 8), factor_a=7.0, factor_b=5.0),
        CrosstalkPair((5, 10), (11, 12), factor_a=6.0, factor_b=6.0),
        CrosstalkPair((12, 13), (9, 14), factor_a=5.0, factor_b=8.0),
        CrosstalkPair((15, 16), (17, 18), factor_a=9.0, factor_b=4.0),
        CrosstalkPair((2, 3), (8, 9), factor_a=5.0, factor_b=5.0),
        CrosstalkPair((6, 7), (11, 12), factor_a=4.0, factor_b=6.0),
        CrosstalkPair((13, 14), (18, 19), factor_a=5.0, factor_b=6.0),
    ]
    crosstalk = CrosstalkModel(coupling, pairs, seed=303)
    return Device("ibmq_boeblingen", coupling, calibration, crosstalk, seed=3)


def all_devices() -> Tuple[Device, Device, Device]:
    """The paper's three evaluation systems."""
    return (ibmq_poughkeepsie(), ibmq_johannesburg(), ibmq_boeblingen())


# ----------------------------------------------------------------------
# heavy-hex stress devices (beyond the paper: 65q/127q scheduling scale)
# ----------------------------------------------------------------------
def _spread_crosstalk_pairs(coupling: CouplingMap, count: int,
                            stride: int = 7) -> List[CrosstalkPair]:
    """``count`` planted high-crosstalk pairs spread across the lattice.

    Walks the sorted 1-hop gate-pair list with a fixed stride, keeping
    only pairs whose edges are not yet used, so the planted set is
    deterministic, edge-disjoint, and device-wide rather than clustered.
    Crosstalk factors cycle through paper-plausible magnitudes (4–9x,
    the Figure 3 range).
    """
    one_hop = sorted(
        tuple(sorted(pair)) for pair in coupling.one_hop_gate_pairs()
    )
    factors = ((6.0, 5.0), (8.0, 4.0), (5.0, 7.0), (9.0, 5.0), (4.0, 6.0))
    pairs: List[CrosstalkPair] = []
    used: set = set()
    position = 0
    while len(pairs) < count and position < len(one_hop) * stride:
        edge_a, edge_b = one_hop[position % len(one_hop)]
        position += stride
        if edge_a in used or edge_b in used:
            continue
        fa, fb = factors[len(pairs) % len(factors)]
        pairs.append(CrosstalkPair(edge_a, edge_b, factor_a=fa, factor_b=fb))
        used.add(edge_a)
        used.add(edge_b)
    if len(pairs) < count:  # pragma: no cover - ample pairs at these sizes
        raise ValueError(
            f"could not plant {count} edge-disjoint pairs on this lattice"
        )
    return pairs


def ibm_hummingbird_65q() -> Device:
    """A 65-qubit heavy-hex device (the Hummingbird r2 generation,
    e.g. ``ibmq_manhattan``): 5 rows x 11 columns, 72 coupling edges.

    A scheduling stress target, not a paper evaluation system: 10 planted
    high-crosstalk pairs spread over the lattice give device-scale models
    enough decisions to overflow the exact solver and exercise the
    windowed strategy.
    """
    coupling = heavy_hex_coupling_map(5, 11)
    calibration = synthesize_calibration(coupling, seed=65)
    pairs = _spread_crosstalk_pairs(coupling, count=10)
    crosstalk = CrosstalkModel(coupling, pairs, seed=650)
    return Device("ibm_hummingbird_65q", coupling, calibration, crosstalk,
                  seed=65)


def simulated_fleet(count: int = 6, qubits: int = 6,
                    seed: int = 0) -> List[Device]:
    """A fleet of small drifting devices for fleet-scale simulation.

    ``count`` line-topology devices named ``sim00``, ``sim01``, ... —
    deliberately tiny (default 6 qubits) so a multi-day multi-device
    soak stays test-sized.  Each device gets its own stable seed
    (calibration, drift, and crosstalk RNG all derive from the fleet
    seed and the device name), plus one or two planted high-crosstalk
    pairs at factors safely above the 3x detection cut, rotated around
    the line so the fleet's planted sets differ.
    """
    from repro.parallel.seeding import stable_entropy

    if qubits < 4:
        raise ValueError("fleet devices need at least 4 qubits")
    devices: List[Device] = []
    factor_cycle = ((10.0, 8.0), (8.0, 11.0), (9.0, 9.0), (11.0, 7.0))
    for index in range(count):
        name = f"sim{index:02d}"
        device_seed = stable_entropy("fleet.preset", seed, name) % 2 ** 31
        coupling = CouplingMap(qubits, [(q, q + 1) for q in range(qubits - 1)])
        calibration = synthesize_calibration(
            coupling, seed=device_seed % 100_003,
        )
        one_hop = sorted(
            tuple(sorted(pair)) for pair in coupling.one_hop_gate_pairs()
        )
        wanted = 1 + index % 2
        pairs: List[CrosstalkPair] = []
        used: set = set()
        offset = device_seed % len(one_hop)
        for step in range(len(one_hop)):
            edge_a, edge_b = one_hop[(offset + step) % len(one_hop)]
            if edge_a in used or edge_b in used:
                continue
            fa, fb = factor_cycle[(index + len(pairs)) % len(factor_cycle)]
            pairs.append(CrosstalkPair(edge_a, edge_b, factor_a=fa,
                                       factor_b=fb))
            used.update((edge_a, edge_b))
            if len(pairs) == wanted:
                break
        crosstalk = CrosstalkModel(coupling, pairs, seed=device_seed % 9_973)
        devices.append(Device(
            name, coupling, calibration, crosstalk,
            seed=device_seed % 65_521,
        ))
    return devices


def ibm_eagle_127q() -> Device:
    """A 127-qubit heavy-hex device (the Eagle r1 generation,
    e.g. ``ibm_washington``): 7 rows x 15 columns, 144 coupling edges.

    The largest scheduling stress target: 16 planted high-crosstalk pairs
    make supremacy-style workloads produce decision counts far beyond the
    exact limit, so ``strategy="auto"`` must decompose to finish under a
    real ``max_solve_seconds`` budget.
    """
    coupling = heavy_hex_coupling_map(7, 15)
    calibration = synthesize_calibration(coupling, seed=127)
    pairs = _spread_crosstalk_pairs(coupling, count=16)
    crosstalk = CrosstalkModel(coupling, pairs, seed=1270)
    return Device("ibm_eagle_127q", coupling, calibration, crosstalk,
                  seed=127)
