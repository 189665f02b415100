"""The compat contract: `compile_circuit` through the pass pipeline must be
instruction-for-instruction identical to the historical monolithic flow.

The reference below is a line-by-line transcription of the pre-pipeline
``compile_circuit`` (route -> decompose -> schedule -> hardware-schedule);
it must never be "fixed" to track the pipeline — it *is* the seed's
behaviour.
"""

import pytest

from repro.compiler import compile_circuit
from repro.core.scheduling.baselines import disable_sched, par_sched, serial_sched
from repro.core.scheduling.xtalk import XtalkScheduler
from repro.transpiler.decompose import decompose_to_basis
from repro.transpiler.routing import route_circuit
from repro.transpiler.scheduling import hardware_schedule
from repro.workloads.swap import swap_benchmark

SCHEDULERS = ("xtalk", "par", "serial", "disable")


def seed_compile(circuit, device, report, scheduler, omega=0.5,
                 initial_layout=None, day=0):
    """The historical implementation, verbatim."""
    routed, layout = route_circuit(circuit, device.coupling,
                                   initial_layout=initial_layout)
    lowered = decompose_to_basis(routed)
    lowered.name = circuit.name
    calibration = device.calibration(day)
    if scheduler == "xtalk":
        xs = XtalkScheduler(calibration, report, omega=omega)
        final = xs.schedule(lowered).circuit
    elif scheduler == "par":
        final = par_sched(lowered)
    elif scheduler == "serial":
        final = serial_sched(lowered)
    else:
        final = disable_sched(lowered, device.coupling)
    duration = hardware_schedule(final, calibration.durations).makespan()
    return final, tuple(layout), duration


def quickstart_circuit(device):
    """The quickstart's SWAP benchmark across the crosstalk-prone middle."""
    return swap_benchmark(device.coupling, 0, 13,
                          path=(0, 5, 10, 11, 12, 13)).circuit


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_identical_to_seed_flow(poughkeepsie, pk_report, scheduler):
    circuit = quickstart_circuit(poughkeepsie)
    expected, expected_layout, expected_duration = seed_compile(
        circuit, poughkeepsie, pk_report, scheduler
    )
    result = compile_circuit(circuit, poughkeepsie, pk_report,
                             scheduler=scheduler)

    assert result.layout == expected_layout
    assert result.duration == expected_duration
    assert result.circuit.name == expected.name
    assert len(result.circuit) == len(expected)
    for got, want in zip(result.circuit, expected):
        assert got.name == want.name
        assert tuple(got.qubits) == tuple(want.qubits)
        assert got.clbit == want.clbit
        assert tuple(got.params) == tuple(want.params)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_trace_attached(poughkeepsie, pk_report, scheduler):
    result = compile_circuit(quickstart_circuit(poughkeepsie), poughkeepsie,
                             pk_report, scheduler=scheduler)
    trace = result.trace
    assert trace is not None
    assert trace.name == f"compile[{scheduler}]"
    assert trace.pass_names == [
        "layout", "routing", "decompose", f"schedule[{scheduler}]",
        "hardware_schedule",
    ]
    assert trace.counter("hardware.makespan_ns") == result.duration
    assert all(span.seconds >= 0.0 for span in trace.spans)
    if scheduler == "xtalk":
        assert trace.counter("schedule.candidate_pairs") >= 1
        assert trace.counter("smt.solve_seconds") > 0
