"""repro — reproduction of "Software Mitigation of Crosstalk on NISQ
Computers" (Murali et al., ASPLOS 2020).

Quick tour of the public API::

    from repro import (
        ibmq_poughkeepsie, NoisyBackend,            # simulated hardware
        CharacterizationCampaign, CharacterizationPolicy,  # Section 5
        XtalkScheduler, par_sched, serial_sched,    # Sections 6-7
        QuantumCircuit,                             # circuit IR
    )

See ``examples/quickstart.py`` for the end-to-end pipeline and
``benchmarks/`` for the drivers regenerating every figure of the paper.
"""

from repro.circuit import QuantumCircuit, Instruction, CircuitDag
from repro.device import (
    Device,
    NoisyBackend,
    CouplingMap,
    ibmq_poughkeepsie,
    ibmq_johannesburg,
    ibmq_boeblingen,
    all_devices,
)
from repro.core import (
    CrosstalkReport,
    CharacterizationCampaign,
    CharacterizationPolicy,
    XtalkScheduler,
    par_sched,
    serial_sched,
)
from repro.rb import RBExecutor
from repro.rb.executor import RBConfig
from repro.compiler import CompilationResult, compile_circuit
from repro.pipeline import (
    Pass,
    PassContext,
    Pipeline,
    ResultCache,
    build_compile_pipeline,
)

__version__ = "1.1.0"

__all__ = [
    "QuantumCircuit",
    "Instruction",
    "CircuitDag",
    "Device",
    "NoisyBackend",
    "CouplingMap",
    "ibmq_poughkeepsie",
    "ibmq_johannesburg",
    "ibmq_boeblingen",
    "all_devices",
    "CrosstalkReport",
    "CharacterizationCampaign",
    "CharacterizationPolicy",
    "XtalkScheduler",
    "par_sched",
    "serial_sched",
    "RBExecutor",
    "RBConfig",
    "CompilationResult",
    "compile_circuit",
    "Pass",
    "PassContext",
    "Pipeline",
    "ResultCache",
    "build_compile_pipeline",
    "__version__",
]
