"""Paper-style table and figure rendering.

The table renderers read the per-cell summary rows that
:func:`repro.sim.sweep.summarize_stats` writes and the sweep cache
stores, keyed by application (and by model or thread count where the
table has those columns), and return the table the way the paper
prints it, so a sweep can be compared against the published numbers
side by side.  Each paper grid in :data:`repro.sim.sweep.NAMED_GRIDS`
carries the renderer for its table.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.common.stats import MachineStats

#: One cell's summary row, as :func:`repro.sim.sweep.summarize_stats`
#: writes it.
Row = Mapping[str, Any]

MODEL_LABELS = {
    "base": "Base",
    "intperfect": "IntPerfect",
    "int512kb": "Int512KB",
    "int64kb": "Int64KB",
    "smtp": "SMTp",
}


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _titled(title: str, body: str, note: str = "",
            warnings: Sequence[str] = ()) -> str:
    """One paper table as a sweep prints it: a ``=== title ===``
    line, an optional note, the table, then any ``SHAPE WARNING``
    lines (expected orderings the rows break — reported, not
    asserted)."""
    lines = [f"=== {title} ==="]
    if note:
        lines.append(note)
    lines.append(body)
    lines.extend(f"SHAPE WARNING: {w}" for w in warnings)
    return "\n".join(lines)


def normalized_exec_table(
    title: str, results: Dict[str, Dict[str, Row]], models: Sequence[str]
) -> str:
    """Figures 2-11: normalized execution time + memory-stall split.

    ``results[app][model]`` is a summary row.  Each cell shows
    ``total (memory-stall fraction)`` normalized to the first model
    (Base) of the same application — the textual equivalent of the
    paper's stacked bars.  The paper's headline orderings (SMTp and
    IntPerfect never slower than Base) are checked per application.
    """
    headers = ["App"] + [MODEL_LABELS.get(m, m) for m in models]
    rows = []
    warnings = []
    for app, per_model in results.items():
        base_cycles = per_model[models[0]]["cycles"]
        norm = {m: per_model[m]["cycles"] / base_cycles for m in models}
        rows.append([app] + [
            f"{norm[m]:.3f} (mem {per_model[m]['memory_stall_fraction']:.2f})"
            for m in models
        ])
        for m in ("smtp", "intperfect"):
            if norm.get(m, 0.0) > 1.0:
                warnings.append(f"{app}: {MODEL_LABELS[m]} slower than Base")
    return _titled(
        title, format_table(headers, rows),
        note="(normalized execution time, memory-stall fraction in parens)",
        warnings=warnings,
    )


def speedup_table(
    title: str,
    ref: Dict[str, Row],
    runs: Dict[str, Dict[int, Row]],
    ways: Sequence[int],
) -> str:
    """Tables 5/6: rows = applications, columns = n-way speedups.

    Each speedup is the 1-node 1-way reference row's cycles over the
    parallel row's (``runs[app][ways]``), at one problem size.
    """
    headers = ["Application"] + [f"{w}-way" for w in ways]
    rows = [
        [app] + [f"{ref[app]['cycles'] / per_way[w]['cycles']:.2f}"
                 for w in ways]
        for app, per_way in runs.items()
    ]
    return _titled(title, format_table(headers, rows))


#: Table 7's column labels, abbreviated as in the paper.
OCCUPANCY_LABELS = {"intperfect": "IntPerf."}


def occupancy_table(
    title: str, results: Dict[str, Dict[str, Row]], models: Sequence[str]
) -> str:
    """Table 7: peak protocol occupancy percentage per model.

    The paper's ordering puts Base highest; an application whose Base
    occupancy falls below 80% of Int512KB's is flagged.
    """
    headers = ["App."] + [
        OCCUPANCY_LABELS.get(m, MODEL_LABELS.get(m, m)) for m in models]
    rows = []
    warnings = []
    for app, per in results.items():
        rows.append([app] + [
            f"{100 * per[m]['occupancy_peak']:.1f}%" for m in models])
        if not per["base"]["occupancy_peak"] >= (
            per["int512kb"]["occupancy_peak"] * 0.8
        ):
            warnings.append(f"{app}: Base occupancy not highest")
    return _titled(title, format_table(headers, rows), warnings=warnings)


def protocol_thread_table(title: str, results: Dict[str, Row]) -> str:
    """Table 8: protocol-thread characteristics under SMTp."""
    headers = ["App.", "Br.Mis. Rate", "Squash %", "Retired Ins."]
    rows = [
        [
            app,
            f"{100 * r['br_mispredict']:.2f}%",
            f"{100 * r['squash_fraction']:.2f}%",
            f"{100 * r['retired_share']:.2f}% of all",
        ]
        for app, r in results.items()
    ]
    return _titled(title, format_table(headers, rows))


#: Table 9's protocol-thread resources, in the paper's column order.
RESOURCES = ("branch_stack", "int_regs", "int_queue", "lsq")


def resource_occupancy_table(title: str, results: Dict[str, Row]) -> str:
    """Table 9: peak active protocol-thread resource occupancy, as
    ``max, mean-of-node-peaks`` per resource."""
    headers = ["App.", "Br. Stack", "Int. Regs", "IQ", "LSQ"]
    rows = []
    for app, r in results.items():
        cells = [app]
        for key in RESOURCES:
            mx, mean = r["peaks"][key]
            cells.append(f"{mx}, {mean:.0f}")
        rows.append(cells)
    return _titled(title, format_table(headers, rows))


def ablation_table(
    title: str,
    note: str,
    column: str,
    ref: Dict[str, Row],
    variant: Dict[str, Row],
) -> str:
    """A §2 ablation: the variant's percent cycle change against the
    reference row of the same application."""
    rows = [
        [app, f"{(variant[app]['cycles'] / r['cycles'] - 1) * 100:+.2f}%"]
        for app, r in ref.items()
    ]
    return _titled(title, format_table(["App.", column], rows), note=note)


def protocol_comparison_table(results) -> Optional[str]:
    """Cross-protocol comparison rows for a finished sweep.

    Groups sweep results whose cells differ *only* in their
    ``protocol`` flag (same app/model/nodes/ways/preset and other
    flags) and prints their cycle counts side by side, normalized to
    the default ``smtp-bitvector`` bundle when it is present in the
    group.  Returns ``None`` when no cell pair is comparable — the
    caller simply skips the section.
    """
    groups: Dict[tuple, Dict[str, object]] = {}
    for r in results:
        flags = dict(r.cell.flags)
        proto = str(flags.pop("protocol", "smtp-bitvector"))
        key = (
            r.cell.app, r.cell.model, r.cell.n_nodes, r.cell.ways,
            r.cell.preset, tuple(sorted(flags.items())),
        )
        groups.setdefault(key, {})[proto] = r
    rows: List[List[object]] = []
    for key, by_proto in sorted(groups.items()):
        if len(by_proto) < 2:
            continue
        base = by_proto.get("smtp-bitvector")
        base_cycles = (
            base.stats["cycles"] if base is not None and base.ok else None
        )
        for proto, r in sorted(by_proto.items()):
            cycles = r.stats["cycles"] if r.ok else None
            rel = (
                f"{cycles / base_cycles:.3f}x"
                if cycles is not None and base_cycles else "-"
            )
            rows.append([
                key[0], key[1], key[2], key[4], proto,
                cycles if cycles is not None else r.status, rel,
            ])
    if not rows:
        return None
    return format_table(
        ["app", "model", "nodes", "preset", "protocol", "cycles",
         "vs default"],
        rows,
    )


def summarize(st: MachineStats) -> str:
    """One-paragraph run summary used by examples."""
    lines = [
        f"model={st.model} nodes={st.n_nodes} ways={st.ways} "
        f"freq={st.freq_ghz:g}GHz",
        f"cycles={st.cycles}  exec={st.exec_seconds * 1e6:.1f}us  "
        f"committed={st.committed}",
        f"memory-stall fraction={st.memory_stall_fraction:.3f}  "
        f"protocol occupancy (peak node)={100 * st.protocol_occupancy_peak():.1f}%",
    ]
    return "\n".join(lines)
