#!/usr/bin/env python3
"""A tour of the SMTp protocol thread (the paper's §2 and §4.1).

Shows the machinery usually hidden inside the pipeline:

1. the assembled coherence handler programs (the protocol ISA),
2. a single miss's handler chain under the microscope,
3. the protocol thread's pipeline footprint: occupancy, branch
   prediction, squashes, and the reserved-resource peaks of Table 9.

Run:  python examples/protocol_thread_tour.py
"""

from repro import run_app
from repro.protocol.handlers import build_handler_table
from repro.protocol.isa import POp
from repro.sim.report import format_table, resource_occupancy_table
from repro.sim.sweep import summarize_stats


def show_handler_programs() -> None:
    table = build_handler_table()
    print("=== The coherence protocol as programs ===")
    print(
        f"{len(table.by_name)} handlers, "
        f"{table.total_instructions()} protocol instructions total\n"
    )
    rows = [
        [name, f"{h.pc:#x}", len(h.instrs)]
        for name, h in sorted(table.by_name.items())
    ]
    print(format_table(["handler", "PC", "instructions"], rows))
    print("\nListing of h_int_shared (a six-instruction critical handler):")
    for i, instr in enumerate(table["h_int_shared"].instrs):
        operands = f"rd=r{instr.rd} rs1=r{instr.rs1}" if instr.op is not POp.SWITCH else ""
        print(f"  {i:2d}: {instr.op.name:8s} {operands}")


def show_characterization() -> None:
    print("\n=== Protocol-thread characterization (Tables 7/8/9) ===")
    stats = {}
    for app in ("fft", "lu", "water"):
        print(f"  running {app} on 2-node SMTp ...")
        stats[app] = run_app(app, "smtp", n_nodes=2, ways=1, preset="bench")
    rows = []
    for app, st in stats.items():
        rows.append(
            [
                app,
                f"{100 * st.protocol_occupancy_peak():.1f}%",
                f"{100 * st.protocol_branch_mispredict_rate():.2f}%",
                f"{100 * st.protocol_squash_cycle_fraction():.3f}%",
                f"{100 * st.retired_protocol_share():.1f}%",
            ]
        )
    print()
    print(
        format_table(
            ["app", "occupancy", "br. mispredict", "squash cycles",
             "retired share"],
            rows,
        )
    )
    print()
    print(resource_occupancy_table(
        "Peak protocol-thread resource occupancy (Table 9 analogue)",
        {app: summarize_stats(st) for app, st in stats.items()},
    ))
    print(
        "\nNote the memory-intensive/compute-intensive split: fft keeps "
        "the protocol thread busiest, water barely wakes it."
    )


if __name__ == "__main__":
    show_handler_programs()
    show_characterization()
