"""Experiment harness: the driver, presets and paper-style reports.

The package re-exports only the simulation path (:mod:`repro.sim.driver`
and :mod:`repro.sim.experiments`), so ``import repro`` or a single cell
run imports no sweep, trace, analyze or fuzz module.  The sweep service
(:mod:`repro.sim.sweep`), the protocol tracer (:mod:`repro.sim.trace`)
and the report renderers (:mod:`repro.sim.report`) are imported by
module name where they are used.
"""

from repro.sim.driver import build_machine, run_app, run_machine
from repro.sim.experiments import APPS, PAPER_SIZES, PRESETS, preset_sizes

__all__ = [
    "APPS",
    "PAPER_SIZES",
    "PRESETS",
    "build_machine",
    "preset_sizes",
    "run_app",
    "run_machine",
]
