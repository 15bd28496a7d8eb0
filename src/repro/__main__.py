"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       simulate one workload on one machine model
``sweep``     run a grid of configurations in parallel, with caching
``fuzz``      run a seeded coherence-fuzzing campaign (or replay one artifact)
``models``    list the five Table 4 machine models
``apps``      list workloads and their preset sizes
``handlers``  disassemble the coherence protocol handlers
``analyze``   statically verify the handler table (see repro.analyze)
"""

from __future__ import annotations

import argparse
import sys

from repro.core.models import MODELS
from repro.fuzz.stress import SHARING_PATTERNS
from repro.sim.experiments import APPS, PRESETS
from repro.sim.report import format_table


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.driver import run_app
    from repro.sim.report import summarize

    stats = run_app(
        args.app,
        args.model,
        n_nodes=args.nodes,
        ways=args.ways,
        freq_ghz=args.freq,
        preset=args.preset,
        check_coherence=args.check,
    )
    print(summarize(stats))
    if args.verbose:
        print("\nPer-node protocol handlers:")
        for node in stats.nodes:
            mix = dict(sorted(node.protocol.handlers_by_type.items()))
            print(f"  node {node.node}: {mix}")
    return 0


def _grid_name(name: str) -> str:
    """``--grid`` type: the sweep (and ``multiprocessing``) loads only
    when a grid is named, not at every CLI start."""
    from repro.sim.sweep import NAMED_GRIDS

    if name not in NAMED_GRIDS:
        raise argparse.ArgumentTypeError(
            f"unknown grid {name!r} (choose from {', '.join(NAMED_GRIDS)})")
    return name


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import time

    from pathlib import Path

    from repro.sim.sweep import (
        GATE_BEST_OF,
        NAMED_GRIDS,
        ResultCache,
        compare,
        make_grid,
        measure_reference_s,
        run_sweep,
        warm_up_cpu,
        write_bench_json,
    )

    if args.list_grids:
        for name, builder in NAMED_GRIDS.items():
            print(f"{name}: {len(builder())} cells")
        return 0

    from repro.common.errors import ConfigError

    try:
        if args.grid:
            if args.protocol:
                print(
                    "error: --protocol does not combine with --grid "
                    "(named grids fix their own protocol cells)",
                    file=sys.stderr,
                )
                return 2
            cells = NAMED_GRIDS[args.grid]()
            name = args.name or args.grid
        else:
            # Only non-default protocols ride in the cell flags, so
            # default sweeps keep their historical cache and gate keys.
            extra = {"protocol": args.protocol} if args.protocol else {}
            cells = make_grid(
                args.apps.split(","),
                args.models.split(","),
                nodes=[int(n) for n in args.nodes.split(",")],
                ways=[int(w) for w in args.ways.split(",")],
                freq_ghz=args.freq,
                preset=args.preset,
                **extra,
            )
            name = args.name or "sweep"
        for c in cells:
            c.cache_key()  # resolves params: rejects bad app/model/preset
    except (KeyError, ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.profile:
        return _profile_cell(cells[0], len(cells), args.profile)

    import os

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    try:
        cache = ResultCache(args.cache_dir, refresh=args.refresh)
    except ConfigError as exc:
        print(f"error: --cache-dir: {exc}", file=sys.stderr)
        return 2
    baseline = None
    if args.gate:
        # Read the committed trajectory up front: a bad path fails
        # before the cells run, and when --out points at the repo root
        # the refreshed file overwrites it.
        try:
            baseline = json.loads(Path(args.gate).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read gate baseline {args.gate}: {exc}",
                  file=sys.stderr)
            return 2
        # Gated runs compare per-cell timings; let the CPU clock
        # settle first so the earliest cells aren't timed cold.
        warm_up_cpu()
    t0 = time.perf_counter()
    results = run_sweep(
        cells,
        jobs=jobs,
        cache=cache,
        timeout=args.timeout or None,
        retries=args.retries,
        progress=print,
        best_of=GATE_BEST_OF if args.gate else 1,
    )
    wall = time.perf_counter() - t0

    rows = [
        [
            r.cell.app, r.cell.model, r.cell.n_nodes, r.cell.ways,
            r.cell.preset, r.status + (" (cached)" if r.cached else ""),
            r.stats["cycles"] if r.ok else (r.error_type or "-"),
            f"{r.elapsed_s:.3f}" if r.elapsed_s > 0 else "-",
            f"{r.compile_s:.3f}" if r.compile_s > 0 else "-",
            f"{r.cycles_per_sec / 1000:.0f}k" if r.cycles_per_sec else "-",
        ]
        for r in results
    ]
    print()
    print(format_table(
        ["app", "model", "nodes", "ways", "preset", "status", "cycles",
         "cpu s", "compile s", "cyc/s"],
        rows,
    ))

    from repro.sim.report import protocol_comparison_table

    comparison = protocol_comparison_table(results)
    if comparison is not None:
        print("\ncross-protocol comparison (same cell, different bundle):")
        print(comparison)

    render = NAMED_GRIDS[args.grid].render if args.grid else None
    if render is not None:
        print()
        failed = sum(1 for r in results if not r.ok)
        if failed:
            print(f"no {args.grid} paper table: {failed} cell(s) failed")
        else:
            print(render(results))

    # Box-speed calibration, timed right after the cells so it sees
    # the same machine conditions; the gate normalizes with it.
    reference_s = measure_reference_s()
    path = write_bench_json(args.out, name, results, jobs=jobs,
                            wall_clock_s=wall, reference_s=reference_s,
                            baseline=baseline)
    print(f"\nwrote {path}")

    if baseline is not None:
        try:
            failures, lines = compare(baseline, json.loads(path.read_text()))
        except ValueError as exc:
            print(f"error: gate baseline {args.gate}: {exc}", file=sys.stderr)
            return 2
        print()
        for line in lines:
            print(f"gate: {line}")
        if failures:
            print(
                f"\ngate: {failures} cell(s) slower than the committed "
                f"trajectory beyond the allowed headroom or below a "
                f"speedup floor"
            )
            return 1
        print("\ngate: no timing regressions; refreshed file becomes "
              "the new baseline when committed")
    return 0 if all(r.ok for r in results) else 1


def _profile_cell(cell, n_cells: int, top: int) -> int:
    """Run one sweep cell under cProfile; print the top hotspots.

    The quickest way to answer "where do the cycles/sec go?" for a
    given grid point — no cache, no worker pool, no best-of repeats:
    one inline simulation with the profiler's instrumentation overhead
    included (absolute times read ~2x slow; the *ranking* is what
    matters).

    The cell is warm-started first (one untimed run), so the profile
    measures the steady state the sweeps time: the compiled-path
    closures (``u_*`` handler steps, superblock emitters) exist and
    show up under their own names instead of the run being dominated
    by one-time compilation frames.  The cumulative-time list is
    followed by a compiled-closure section filtered to the compiler
    modules, so the compiled fast path stays readable even when its
    per-call self-times are too small for the global top list.
    """
    import cProfile
    import pstats

    from repro.sim.driver import run_app

    if n_cells > 1:
        print(f"profiling the first of {n_cells} cells: {cell.label}")
    else:
        print(f"profiling {cell.label}")
    kwargs = dict(
        n_nodes=cell.n_nodes,
        ways=cell.ways,
        freq_ghz=cell.freq_ghz,
        preset=cell.preset,
        max_cycles=cell.max_cycles,
        **dict(cell.flags),
    )
    run_app(cell.app, cell.model, **kwargs)  # warm-start: compile once
    prof = cProfile.Profile()
    prof.enable()
    stats = run_app(cell.app, cell.model, **kwargs)
    prof.disable()
    print(f"simulated {stats.cycles} cycles "
          f"(+{stats.skipped_cycles} skipped)\n")
    ps = pstats.Stats(prof)
    ps.sort_stats("cumulative").print_stats(top)
    print("compiled closures (protocol handler steps, superblock "
          "emitters), by cumulative time:")
    ps.print_stats(r"repro[/\\](protocol|apps)[/\\]compile", top)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os
    import time

    if args.replay:
        from repro.common.errors import ConfigError as _ConfigError
        from repro.fuzz.artifact import replay_artifact

        try:
            reproduced, failure, ops = replay_artifact(
                args.replay, use_shrunk=not args.full_ops,
                protocol=args.protocol,
            )
        except _ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot replay {args.replay}: {exc!r}",
                  file=sys.stderr)
            return 2
        if failure is not None:
            print(f"replay raised {type(failure).__name__}: "
                  f"{str(failure).splitlines()[0]}")
        if reproduced:
            print(f"reproduced the recorded failure with {len(ops)} ops")
            return 0
        print(f"did NOT reproduce the recorded failure "
              f"({len(ops)} ops replayed)")
        return 3

    from repro.common.errors import ConfigError
    from repro.fuzz.campaign import (
        FuzzCell,
        run_campaign,
        summarize_campaign,
        write_fuzz_json,
    )
    from repro.fuzz.faults import parse_faults
    from repro.fuzz.stress import StressConfig

    try:
        faults = parse_faults(args.faults)
        sharings = (
            SHARING_PATTERNS if args.sharing == "mix" else (args.sharing,)
        )
        cells = [
            FuzzCell(
                seed=args.seed_base + i,
                model=args.model,
                n_nodes=args.nodes,
                stress=StressConfig(
                    n_ops=args.ops,
                    n_lines=args.lines,
                    sharing=sharings[i % len(sharings)],
                ),
                faults=faults,
                protocol=args.protocol or "smtp-bitvector",
            )
            for i in range(args.seeds)
        ]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    ledger = None
    if args.ledger:
        from repro.sim.sweep import ResultLedger

        ledger = ResultLedger(args.ledger)
    t0 = time.perf_counter()
    results = run_campaign(
        cells,
        jobs=jobs,
        out_dir=args.artifacts,
        shrink=not args.no_shrink,
        timeout=args.timeout or None,
        progress=print,
        ledger=ledger,
    )
    wall = time.perf_counter() - t0
    summary = summarize_campaign(results)
    path = write_fuzz_json(args.out, args.name, results, jobs=jobs,
                           wall_clock_s=wall)
    print(
        f"\nfuzz: {summary['n_cells']} cells, {summary['n_ok']} ok, "
        f"{summary['n_failed']} failed {summary['by_status']} "
        f"in {wall:.1f}s"
    )
    for artifact in summary["artifacts"]:
        print(f"  artifact: {artifact}")
    print(f"wrote {path}")
    return 0 if summary["n_failed"] == 0 else 1


def _cmd_models(args: argparse.Namespace) -> int:
    rows = [
        ["base", "embedded dual-issue PP", "400 MHz", "512 KB DM"],
        ["intperfect", "embedded dual-issue PP", "processor", "perfect"],
        ["int512kb", "embedded dual-issue PP", "1/2 processor", "512 KB DM"],
        ["int64kb", "embedded dual-issue PP", "1/2 processor", "64 KB DM"],
        ["smtp", "protocol thread on the pipeline", "1/2 processor", "shares L1/L2"],
    ]
    print(format_table(["model", "protocol execution", "MC clock", "dir cache"], rows))
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    rows = []
    for app in APPS:
        sizes = {p: PRESETS[p][app] for p in PRESETS}
        rows.append([app, str(sizes["tiny"]), str(sizes["bench"]), str(sizes["default"])])
    print(format_table(["app", "tiny", "bench", "default"], rows))
    return 0


def _cmd_handlers(args: argparse.Namespace) -> int:
    from repro.protocol import registry

    table = registry.get(args.protocol).build_table()
    if args.name:
        handler = table[args.name]
        print(f"{handler.name} @ {handler.pc:#x} ({len(handler)} instructions)")
        for i, instr in enumerate(handler.instrs):
            fields = []
            if instr.rd:
                fields.append(f"rd=r{instr.rd}")
            if instr.rs1:
                fields.append(f"rs1=r{instr.rs1}")
            if instr.rs2 is not None:
                fields.append(f"rs2=r{instr.rs2}")
            elif instr.imm:
                fields.append(f"imm={instr.imm:#x}")
            if instr.target >= 0:
                fields.append(f"-> {instr.target}")
            print(f"  {i:3d}: {instr.op.name:9s} {' '.join(fields)}")
        return 0
    rows = [
        [name, f"{h.pc:#x}", len(h)]
        for name, h in sorted(table.by_name.items())
    ]
    print(format_table(["handler", "PC", "instrs"], rows))
    print(f"\n{table.total_instructions()} protocol instructions total; "
          "use `handlers --name h_get` to disassemble one.")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SMTp (ISCA 2004) reproduction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("app", choices=APPS)
    run_p.add_argument("--model", choices=MODELS, default="smtp")
    run_p.add_argument("--nodes", type=int, default=2)
    run_p.add_argument("--ways", type=int, default=1, choices=(1, 2, 4))
    run_p.add_argument("--freq", type=float, default=2.0, help="GHz")
    run_p.add_argument("--preset", choices=tuple(PRESETS), default="bench")
    run_p.add_argument("--check", action="store_true",
                       help="check every committed store and audit every "
                       "line at the end against the coherence invariants")
    run_p.add_argument("-v", "--verbose", action="store_true")
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a configuration grid in parallel with result caching",
    )
    sweep_p.add_argument("--grid", type=_grid_name,
                         help="a named grid, see --list-grids (overrides "
                         "the axis options)")
    sweep_p.add_argument("--list-grids", action="store_true",
                         help="list named grids and exit")
    sweep_p.add_argument("--apps", default=",".join(APPS),
                         help="comma-separated workloads")
    sweep_p.add_argument("--models", default=",".join(MODELS),
                         help="comma-separated machine models")
    sweep_p.add_argument("--nodes", default="1",
                         help="comma-separated node counts")
    sweep_p.add_argument("--ways", default="1",
                         help="comma-separated threads-per-node")
    sweep_p.add_argument("--freq", type=float, default=2.0, help="GHz")
    sweep_p.add_argument("--preset", choices=tuple(PRESETS), default="bench")
    sweep_p.add_argument("--jobs", type=int, default=None,
                         help="worker processes (0 = inline; default: CPUs)")
    sweep_p.add_argument("--cache-dir", default=".sweep_cache",
                         help="result cache directory")
    sweep_p.add_argument("--timeout", type=float, default=0,
                         help="seconds per cell (0 = unlimited)")
    sweep_p.add_argument("--retries", type=int, default=0,
                         help="extra attempts for timed-out/crashed cells")
    sweep_p.add_argument("--refresh", action="store_true",
                         help="ignore cached results (they are rewritten)")
    sweep_p.add_argument("--out", default=".",
                         help="directory for the BENCH_<name>.json report")
    sweep_p.add_argument("--name", default=None,
                         help="report name (default: grid name or 'sweep')")
    sweep_p.add_argument("--gate", default=None, metavar="BENCH_JSON",
                         help="time each cell best-of-5 and fail if any "
                              "fresh cell is >25%% slower than this "
                              "committed trajectory or below one of its "
                              "speedup floors (use with --refresh for "
                              "fresh timings)")
    sweep_p.add_argument("--profile", type=int, default=0, metavar="N",
                         help="run the first cell of the grid inline under "
                              "cProfile and print the top-N cumulative "
                              "hotspots instead of sweeping")
    sweep_p.add_argument("--protocol", default=None, metavar="NAME",
                         help="run every cell of an axis-built grid on "
                              "this registered coherence bundle (see "
                              "`repro analyze --protocol`; default: the "
                              "machine default, smtp-bitvector)")
    sweep_p.set_defaults(fn=_cmd_sweep)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="seeded coherence-fuzzing campaign with shrink-on-failure",
    )
    fuzz_p.add_argument("--seeds", type=int, default=20,
                        help="number of seeds (cells) to run")
    fuzz_p.add_argument("--seed-base", type=int, default=0,
                        help="first seed; cells use seed_base..seed_base+N-1")
    fuzz_p.add_argument("--jobs", type=int, default=None,
                        help="worker processes (0 = inline; default: CPUs)")
    fuzz_p.add_argument("--faults", default="off",
                        help="off|on|heavy|dup or key=value pairs "
                             "(delay_rate=0.2,delay_max=500,dup_rate=0)")
    fuzz_p.add_argument("--ops", type=int, default=300,
                        help="memory operations per cell")
    fuzz_p.add_argument("--lines", type=int, default=4,
                        help="contended lines homed at each node")
    fuzz_p.add_argument("--nodes", type=int, default=2,
                        help="nodes per fuzz machine")
    fuzz_p.add_argument("--model", choices=MODELS, default="base")
    fuzz_p.add_argument("--sharing", default="mix",
                        choices=SHARING_PATTERNS + ("mix",),
                        help="sharing pattern ('mix' rotates across cells)")
    fuzz_p.add_argument("--timeout", type=float, default=0,
                        help="seconds per cell (0 = unlimited; needs --jobs>0)")
    fuzz_p.add_argument("--artifacts", default="fuzz_artifacts",
                        help="directory for failure artifacts")
    fuzz_p.add_argument("--out", default=".",
                        help="directory for the FUZZ_<name>.json report")
    fuzz_p.add_argument("--name", default="fuzz", help="report name")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing failing op lists")
    fuzz_p.add_argument("--ledger", metavar="DIR", default=None,
                        help="durable completed-cell ledger: a killed "
                             "campaign re-run with the same arguments "
                             "replays finished cells and only re-fuzzes "
                             "the interrupted ones")
    fuzz_p.add_argument("--replay", metavar="ARTIFACT",
                        help="replay one failure artifact and exit "
                             "(0 = reproduced, 3 = not)")
    fuzz_p.add_argument("--full-ops", action="store_true",
                        help="with --replay: use the full op list, "
                             "not the shrunk one")
    fuzz_p.add_argument("--protocol", default=None, metavar="NAME",
                        help="registered coherence bundle to fuzz "
                             "(default smtp-bitvector); with --replay, "
                             "asserts the artifact's recorded protocol "
                             "and errors on a mismatch")
    fuzz_p.set_defaults(fn=_cmd_fuzz)

    sub.add_parser("models", help="list machine models").set_defaults(fn=_cmd_models)
    sub.add_parser("apps", help="list workloads/presets").set_defaults(fn=_cmd_apps)

    handlers_p = sub.add_parser("handlers", help="show protocol handlers")
    handlers_p.add_argument("--name", help="disassemble one handler")
    handlers_p.add_argument("--protocol", default="smtp-bitvector",
                            metavar="NAME",
                            help="registered coherence bundle to show "
                                 "(default smtp-bitvector)")
    handlers_p.set_defaults(fn=_cmd_handlers)

    from repro.analyze.cli import add_analyze_parser

    add_analyze_parser(sub)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
