"""The six workloads (Table 1) plus synthetic test kernels.

The package imports only the shared kernel machinery (builders, the
runtime, the compiler).  Each application is a submodule that is
imported by name when it runs (``from repro.apps import fft``, or
:func:`repro.sim.experiments.app_sources`), so a cell pays for the one
workload it simulates.
"""

from repro.apps.base import AppContext
from repro.apps.compile import (
    CompiledKernelBuilder,
    CompiledProgram,
    app_interp_forced,
    build_program,
)
from repro.apps.program import AWAIT, KernelBuilder, ThreadProgram
from repro.apps.runtime import AddressSpace, SpinLock, TreeBarrier, spin_until

__all__ = [
    "AWAIT",
    "AddressSpace",
    "AppContext",
    "CompiledKernelBuilder",
    "CompiledProgram",
    "KernelBuilder",
    "SpinLock",
    "ThreadProgram",
    "TreeBarrier",
    "app_interp_forced",
    "build_program",
    "spin_until",
]
