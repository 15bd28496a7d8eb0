"""The simulation path's import budget.

A fresh interpreter that builds and runs one cell through
:mod:`repro.sim.driver` imports the simulator and the one application
it runs: no sweep service, protocol tracer, verifier or fuzzer, and
no ``multiprocessing``.  Every perfbench set-up probe, ``python -m
repro run`` and each docs-gate ``--help`` subprocess pays that cold
start, so a stray package-level import shows up here first.  The CLI
module itself loads the sweep service only for ``repro sweep``.  A
fuzz cell and an in-memory model check — the verifiers' own set-up
cost — load neither the sweep nor the fan-out and store it shares
with fuzz campaigns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: The sweep service, the fan-out and store and what they import.
SERVICE = {"repro.sim.sweep", "repro.sim.pool", "multiprocessing"}

VERIFIER_PROBES = {
    "fuzz-cell": """
import json, sys
from repro.fuzz.campaign import FuzzCell, run_fuzz_cell
from repro.fuzz.stress import StressConfig
cell = FuzzCell(seed=1, model="smtp", stress=StressConfig(n_ops=60))
result = run_fuzz_cell(cell, shrink=False)
print(json.dumps({"ok": result.ok, "modules": sorted(sys.modules)}))
""",
    "model-check": """
import json, sys
from repro.analyze.model import check_model
result = check_model(n_nodes=2, loads=0, stores=1)
print(json.dumps({"ok": result.violation is None,
                  "modules": sorted(sys.modules)}))
""",
}


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


@pytest.mark.parametrize("name", sorted(VERIFIER_PROBES))
def test_verifiers_import_no_sweep_fan_out_or_store(name):
    out = probe(VERIFIER_PROBES[name])
    assert out["ok"]
    loaded = sorted(set(out["modules"]) & SERVICE)
    assert loaded == [], f"the {name} path imported {loaded}"
