"""The simulation path's import budget.

A fresh interpreter that builds and runs one cell through
:mod:`repro.sim.driver` imports the simulator and the one application
it runs: no sweep service, protocol tracer, verifier or fuzzer, and
no ``multiprocessing``.  Every perfbench set-up probe, ``python -m
repro run`` and each docs-gate ``--help`` subprocess pays that cold
start, so a stray package-level import shows up here first.  The CLI
module itself loads the sweep service only for ``repro sweep``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.sim.experiments import APPS

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = {"repro.sim.sweep", "repro.sim.trace", "multiprocessing",
             "repro.apps.synthetic"}

CLI_PROBE = """
import json, sys
import repro.__main__
print(json.dumps(sorted(sys.modules)))
"""

PROBE = """
import json, sys
from repro.sim import driver
stats = driver.run_app("fft", "base", n_nodes=1, preset="tiny")
print(json.dumps({"cycles": stats.cycles, "modules": sorted(sys.modules)}))
"""


def probe(code: str):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return json.loads(proc.stdout)


def test_one_cell_imports_only_the_simulator_and_its_app():
    out = probe(PROBE)
    assert out["cycles"] > 0
    modules = set(out["modules"])
    other_apps = {f"repro.apps.{app}" for app in APPS if app != "fft"}
    loaded = sorted(
        m for m in modules
        if m in FORBIDDEN or m in other_apps
        or m.split(".")[:2] in (["repro", "analyze"], ["repro", "fuzz"])
    )
    assert loaded == [], f"the simulation path imported {loaded}"
    assert "repro.apps.fft" in modules


def test_cli_module_imports_no_sweep_service():
    modules = set(probe(CLI_PROBE))
    loaded = sorted(modules & {"repro.sim.sweep", "multiprocessing"})
    assert loaded == [], f"import repro.__main__ imported {loaded}"
