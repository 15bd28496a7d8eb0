"""``python -m repro analyze``: run the three verifier passes.

Exit codes: 0 clean (possibly with suppressed/info findings), 1 at
least one unsuppressed error finding, 2 configuration error (bad
flags, broken suppression list, a frontier dir holding another
run).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from repro.common.errors import ConfigError
from repro.protocol import registry
from repro.protocol.directory import DirectoryLayout

from repro.analyze.findings import Finding, Report, SEV_INFO, format_report


def add_analyze_parser(sub) -> None:
    p = sub.add_parser(
        "analyze",
        help="statically verify the protocol handler table",
        description=(
            "Static handler analysis, dispatch-completeness checking, "
            "and exhaustive small-model checking of the shipped "
            "coherence handlers (with symmetry + partial-order "
            "reduction; see docs/analyze.md)."
        ),
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument(
        "--protocol", default=registry.DEFAULT_PROTOCOL,
        choices=registry.names(), metavar="NAME",
        help="registered protocol bundle to verify (one of: "
        + ", ".join(registry.names())
        + f"; default {registry.DEFAULT_PROTOCOL})",
    )
    p.add_argument(
        "--nodes", "--max-nodes", dest="nodes", type=int, default=2,
        metavar="N",
        help="model-checker machine size (2-6; default 2)",
    )
    p.add_argument(
        "--lines", type=int, default=1, metavar="L",
        help="number of cache lines under test (1-3; default 1)",
    )
    p.add_argument(
        "--depth", type=int, default=None, metavar="D",
        help="cap BFS exploration at D transitions deep (default "
        "unlimited; a capped run reports truncated=True)",
    )
    p.add_argument(
        "--frontier-dir", default=None, metavar="DIR",
        help="checkpoint the search under DIR after every BFS level; a "
        "re-run resumes a killed run or replays a finished one (see "
        "docs/analyze.md); default no checkpoint",
    )
    p.add_argument(
        "--max-states", type=int, default=400_000, metavar="S",
        help="cap on the states the whole search admits; a capped run "
        "reports truncated=True (default 400000)",
    )
    p.add_argument(
        "--loads", type=int, default=1, metavar="L",
        help="per-node load budget for the model checker (default 1)",
    )
    p.add_argument(
        "--stores", type=int, default=1, metavar="S",
        help="per-node store budget for the model checker (default 1)",
    )
    p.add_argument(
        "--no-model", action="store_true",
        help="skip the (slower) small-model checking pass",
    )
    p.add_argument(
        "--bench-model", default=None, metavar="PATH",
        help="record the model pass (states, canonical states, "
        "reduction ratios, wall time) as a row in PATH "
        "(BENCH_model.json convention; gated by tier-1)",
    )
    p.add_argument(
        "--artifacts", default="analyze-artifacts", metavar="DIR",
        help="directory for replayable counterexample artifacts",
    )
    p.add_argument(
        "--write-inventory", nargs="?", const="docs/handlers.md",
        default=None, metavar="PATH",
        help="regenerate the handler-inventory table (default "
        "docs/handlers.md) and exit",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print per-handler worst-case notes",
    )
    p.set_defaults(fn=cmd_analyze)


def bench_row(config: dict, result, seconds: float) -> dict:
    """One BENCH_model.json row: the trajectory point for a config."""
    states = max(1, result.states)
    explored = result.transitions + result.pruned
    return {
        **config,
        "states": result.states,
        "sym_states": result.sym_states,
        "transitions": result.transitions,
        "pruned": result.pruned,
        "max_depth": result.max_depth,
        "truncated": result.truncated,
        "violation": result.violation is not None,
        # canonical-state compression from symmetry alone:
        "sym_ratio": round(result.sym_states / states, 3),
        # fraction of enabled transitions the ample sets pruned:
        "por_ratio": round(result.pruned / explored, 3) if explored else 0.0,
        "seconds": round(seconds, 2),
    }


def update_bench_model(path: str, row: dict) -> None:
    """Merge ``row`` into the BENCH_model.json trajectory at ``path``.

    Rows are keyed by configuration slug so re-running one
    configuration refreshes only its own row (mirroring the
    BENCH_smoke.json per-cell convention).  Non-default protocols get
    their own rows; the default keeps its historical key.
    """
    key = (
        f"n{row['nodes']}-L{row['lines']}"
        f"-loads{row['loads']}-stores{row['stores']}"
    )
    protocol = row.get("protocol", registry.DEFAULT_PROTOCOL)
    if protocol != registry.DEFAULT_PROTOCOL:
        key += f"-{protocol}"
    target = Path(path)
    doc = {"schema": 1, "configs": {}}
    if target.exists():
        doc = json.loads(target.read_text())
    doc.setdefault("configs", {})[key] = row
    target.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def build_report(
    max_nodes: int = 2,
    max_states: int = 400_000,
    loads: int = 1,
    stores: int = 1,
    run_model: bool = True,
    artifacts_dir: Optional[str] = None,
    n_lines: int = 1,
    depth: Optional[int] = None,
    frontier_dir: Optional[str] = None,
    bench_model: Optional[str] = None,
    protocol: str = registry.DEFAULT_PROTOCOL,
) -> Report:
    """Run all passes over one registered bundle's installed table."""
    from repro.analyze.absint import run_static_pass
    from repro.analyze.dispatch import run_dispatch_pass
    from repro.analyze.model import check_model, counterexample_artifact
    from repro.analyze.suppressions import suppressions_for

    bundle = registry.get(protocol)
    suppressions = suppressions_for(protocol)
    table = bundle.build_table()
    layout = DirectoryLayout(
        local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4
    )
    report = Report()
    report.stats["protocol"] = protocol

    findings, inventory = run_static_pass(table, layout, bundle=bundle)
    report.extend(findings)
    report.inventory = inventory
    report.stats["static"] = {
        "handlers": len(inventory),
        "errors": sum(1 for f in findings if f.severity != SEV_INFO),
    }

    worst = {
        str(row["name"]): int(row["worst_case"])
        for row in inventory
        if row["worst_case"] is not None
    }
    findings, stats = run_dispatch_pass(
        table, layout, worst_cases=worst, bundle=bundle
    )
    report.extend(findings)
    report.stats["dispatch"] = stats

    if run_model:
        t0 = time.perf_counter()
        result = check_model(
            n_nodes=max_nodes, loads=loads, stores=stores,
            max_states=max_states, table=table, layout=layout,
            n_lines=n_lines, depth=depth, frontier_dir=frontier_dir,
            protocol=protocol,
        )
        seconds = time.perf_counter() - t0
        report.stats["model"] = {
            "nodes": max_nodes,
            "lines": n_lines,
            "states": result.states,
            "sym_states": result.sym_states,
            "transitions": result.transitions,
            "pruned": result.pruned,
            "max_depth": result.max_depth,
            "truncated": result.truncated,
            "seconds": round(seconds, 2),
        }
        if bench_model is not None:
            update_bench_model(bench_model, bench_row(
                {
                    "nodes": max_nodes, "lines": n_lines,
                    "loads": loads, "stores": stores,
                    "protocol": protocol,
                },
                result, seconds,
            ))
        if result.violation is not None:
            v = result.violation
            detail = {
                "status": v.status,
                "trace": list(v.trace),
            }
            if artifacts_dir is not None:
                path = counterexample_artifact(
                    Path(artifacts_dir) / f"model_{v.code}.json", v,
                    max_nodes, n_lines, protocol=protocol,
                )
                detail["artifact"] = str(path)
            report.add(Finding(
                "model", v.code, "",
                f"{v.message} (trace: {len(v.trace)} steps"
                + (f", artifact {detail.get('artifact')}" if artifacts_dir
                   else "") + ")",
                detail=detail,
            ))
        elif result.truncated:
            report.add(Finding(
                "model", "truncated", "",
                f"state cap reached after {result.states} states: the "
                "model was NOT exhaustively verified",
                severity=SEV_INFO,
            ))

    report.apply_suppressions(suppressions)
    return report


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        if args.write_inventory is not None:
            from repro.analyze.absint import run_static_pass
            from repro.analyze.inventory import write_inventory

            bundle = registry.get(args.protocol)
            table = bundle.build_table()
            _, inventory = run_static_pass(table, bundle=bundle)
            target = args.write_inventory
            if (target == "docs/handlers.md"
                    and args.protocol != registry.DEFAULT_PROTOCOL):
                # Unnamed target + non-default bundle: keep the default
                # protocol's committed inventory intact.
                target = f"docs/handlers-{args.protocol}.md"
            path = write_inventory(target, inventory, protocol=args.protocol)
            print(f"wrote {path}")
            return 0
        report = build_report(
            max_nodes=args.nodes,
            max_states=args.max_states,
            loads=args.loads,
            stores=args.stores,
            run_model=not args.no_model,
            artifacts_dir=args.artifacts,
            n_lines=args.lines,
            depth=args.depth,
            frontier_dir=args.frontier_dir,
            bench_model=args.bench_model,
            protocol=args.protocol,
        )
    except ConfigError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(format_report(report, verbose=args.verbose))
    return 0 if report.clean else 1
