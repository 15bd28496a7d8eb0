"""Paper §2.2 put to the test: the SMTp core reserves one instance of
each pipeline resource for the protocol thread.  Zeroing a reservation
that binds must hang the machine, and the machine watchdog must catch
the hang without a sanitizer, naming the stuck line.

The cells are fft and radix on SMTp, 4 nodes, 2-way, ``tiny``.
EXPERIMENTS.md ("Verification behind the numbers") records how the
witnesses were found and why the integer-register and MSHR
reservations and the bypass buffers never bind on the cells tried.
"""

import dataclasses

import pytest

from repro.common.errors import DeadlockError
from repro.core.machine import Machine
from repro.core.models import make_machine_params
from repro.sim.driver import run_machine
from repro.sim.experiments import app_sources, preset_sizes

WATCHDOG = 100_000
#: Cycles each cell takes with the shipped reservations.  A stuck miss
#: is allocated while the shipped run would still be going, so the
#: watchdog fires by ``WATCHDOG`` plus the cell's shipped length.
SHIPPED = {"fft": 23_947, "radix": 67_295}
WITNESSES = [
    ("fft", "reserved_decode_slots"),
    ("fft", "reserved_rename_slots"),
    ("fft", "reserved_int_queue"),
    ("fft", "reserved_store_buffer"),
    ("radix", "reserved_branch_stack"),
    ("radix", "reserved_lsq_slots"),
]


def run_cell(app, **proc_overrides):
    """Run the cell; returns the machine, which ``run_machine`` left at
    the cycle it finished or raised on."""
    mp = make_machine_params("smtp", 4, 2, watchdog_cycles=WATCHDOG)
    mp = dataclasses.replace(
        mp, proc=dataclasses.replace(mp.proc, **proc_overrides)
    )
    machine = Machine(mp)
    sources = app_sources(app, machine, dict(preset_sizes(app, "tiny")))
    run_machine(machine, sources, max_cycles=3 * WATCHDOG)
    return machine


@pytest.mark.parametrize("app", SHIPPED)
def test_shipped_reservations_finish_under_the_same_watchdog(app):
    assert run_cell(app).cycle == SHIPPED[app]


@pytest.mark.parametrize("app,field", WITNESSES)
def test_zeroed_reservation_hangs_and_the_watchdog_names_the_line(
        app, field):
    with pytest.raises(DeadlockError) as exc:
        run_cell(app, **{field: 0})
    report = str(exc.value)
    first, *rest = report.splitlines()
    assert first.startswith("no forward progress since cycle ")
    now = int(first.split("(now ")[1].split(",")[0])
    assert WATCHDOG < now <= WATCHDOG + SHIPPED[app]
    stuck = [line for line in rest if line.startswith("  node ")]
    assert stuck, report
    assert " miss, age " in stuck[0] and "directory:" in stuck[0]
