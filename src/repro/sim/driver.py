"""The experiment driver: build a machine, run a workload, collect stats.

``run_app`` is the single entry point used by examples, tests and every
sweep cell: it instantiates one of the five Table 4 machine models, the
requested application at the requested preset size, runs to
completion, drains the memory system, and returns
:class:`~repro.common.stats.MachineStats`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import SimulationError
from repro.common.stats import MachineStats
from repro.core.machine import Machine
from repro.core.models import make_machine_params
from repro.sim.experiments import app_sources, preset_sizes


def build_machine(
    model: str,
    n_nodes: int = 1,
    ways: int = 1,
    freq_ghz: float = 2.0,
    **model_kwargs,
) -> Machine:
    mp = make_machine_params(model, n_nodes, ways, freq_ghz, **model_kwargs)
    return Machine(mp)


def run_machine(machine: Machine, sources_per_node, max_cycles: int) -> MachineStats:
    machine.install_cores(sources_per_node)
    machine.run(max_cycles)
    if not machine.all_done():
        raise SimulationError(
            f"workload did not finish in {max_cycles} cycles\n"
            + machine._deadlock_report()
        )
    machine.quiesce()
    machine.finish()
    machine.final_checks()
    return machine.collect_stats()


def run_app(
    app: str,
    model: str,
    n_nodes: int = 1,
    ways: int = 1,
    freq_ghz: float = 2.0,
    preset: str = "bench",
    max_cycles: int = 30_000_000,
    sizes: Optional[Dict] = None,
    **model_kwargs,
) -> MachineStats:
    """Run ``app`` on ``model`` and return machine statistics.

    ``preset`` selects the scaled workload sizes ('tiny', 'bench',
    'default'); pass ``sizes`` to override individual parameters.
    """
    machine = build_machine(model, n_nodes, ways, freq_ghz, **model_kwargs)
    params = dict(preset_sizes(app, preset))
    if sizes:
        params.update(sizes)
    sources = app_sources(app, machine, params)
    return run_machine(machine, sources, max_cycles)
