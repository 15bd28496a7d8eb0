"""Fuzz cells and campaigns.

One *cell* is a fully-described randomized run: seed, machine shape,
stress config, fault config.  :func:`run_fuzz_cell` executes a cell on
a fresh sanitized machine; on failure it writes a replayable artifact
and greedily shrinks the op list to a minimal reproducer.

A *campaign* fans many cells across the same worker pool the sweep
runner uses (:func:`repro.sim.sweep.pool_map`) and summarizes the
results; ``python -m repro fuzz`` is the CLI face.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    CoherenceViolation,
    DeadlockError,
    ProtocolError,
    SimulationError,
)
from repro.fuzz.artifact import machine_snapshot, write_artifact
from repro.fuzz.faults import FaultConfig, FaultInjector
from repro.fuzz.shrink import DEFAULT_BUDGET, shrink_ops
from repro.fuzz.stress import FuzzOp, StressConfig, generate_ops, run_ops

#: Machine scaling used for fuzz cells (mirrors the test suite's
#: ``small_machine``: tiny caches, small local memory, short watchdog).
FUZZ_MACHINE_KWARGS = dict(
    cache_scale=32,
    dir_scale=256,
    local_memory_bytes=1 << 22,
    check_coherence=True,
    sanitize=True,
    watchdog_cycles=300_000,
)


@dataclass(frozen=True)
class FuzzCell:
    """Everything that determines one fuzz run, seed included."""

    seed: int
    model: str = "base"
    n_nodes: int = 2
    stress: StressConfig = field(default_factory=StressConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    max_cycles: int = 3_000_000
    trace_tail: int = 400
    #: Registered coherence-protocol bundle the machine runs
    #: (``repro.protocol.registry``); recorded in artifacts so
    #: ``--replay`` rebuilds the same protocol.
    protocol: str = "smtp-bitvector"

    @property
    def label(self) -> str:
        proto = (
            f" proto={self.protocol}"
            if self.protocol != "smtp-bitvector" else ""
        )
        return (
            f"seed={self.seed} {self.model} n={self.n_nodes} "
            f"{self.stress.sharing} ops={self.stress.n_ops}"
            f"{proto}{' faults' if self.faults.active else ''}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "model": self.model,
            "n_nodes": self.n_nodes,
            "stress": self.stress.to_dict(),
            "faults": self.faults.to_dict(),
            "max_cycles": self.max_cycles,
            "trace_tail": self.trace_tail,
            "protocol": self.protocol,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FuzzCell":
        return cls(
            seed=int(d["seed"]),
            model=str(d.get("model", "base")),
            n_nodes=int(d.get("n_nodes", 2)),
            stress=StressConfig.from_dict(d.get("stress", {})),
            faults=FaultConfig(**d.get("faults", {})),
            max_cycles=int(d.get("max_cycles", 3_000_000)),
            trace_tail=int(d.get("trace_tail", 400)),
            protocol=str(d.get("protocol", "smtp-bitvector")),
        )


def install_idle_cores(machine) -> None:
    """Give an SMTp machine one idle app thread per node, so the
    protocol-thread engine exists for memory-side traffic."""
    from repro.apps.program import KernelBuilder, ThreadProgram

    def idle(k):
        k.alu()
        yield

    machine.install_cores(
        [
            [
                ThreadProgram(
                    idle,
                    KernelBuilder(0, 0x400000 + n * 0x10000),
                    machine.wheel,
                )
            ]
            for n in range(machine.mp.n_nodes)
        ]
    )


def build_fuzz_machine(cell: FuzzCell):
    """A sanitized scaled machine (plus fault injector) for one cell."""
    from repro.core.machine import Machine
    from repro.core.models import make_machine_params

    mp = make_machine_params(
        cell.model, cell.n_nodes, 1,
        protocol=cell.protocol, **FUZZ_MACHINE_KWARGS,
    )
    machine = Machine(mp)
    if mp.protocol_engine == "thread":
        install_idle_cores(machine)
    if cell.faults.active:
        FaultInjector(cell.faults, cell.seed).install(machine.fabric)
    return machine


def status_of(failure: BaseException) -> str:
    """Map a failure to its campaign status class."""
    if isinstance(failure, (CoherenceViolation, ProtocolError)):
        return "violation"
    if isinstance(failure, DeadlockError):  # includes LivelockError
        return "deadlock"
    return "error"


def execute(cell: FuzzCell, ops: List[FuzzOp], collect_trace: bool = False):
    """Run ``ops`` on a fresh machine built from ``cell``.

    Returns ``(failure_or_None, machine, tracer_or_None)``; the machine
    is returned mid-death for snapshotting.
    """
    machine = build_fuzz_machine(cell)
    tracer = None
    if collect_trace:
        from repro.sim.trace import ProtocolTracer

        tracer = ProtocolTracer(machine, max_events=cell.trace_tail, ring=True)
    try:
        run_ops(
            machine, ops,
            max_outstanding=cell.stress.max_outstanding,
            max_cycles=cell.max_cycles,
        )
        machine.final_checks()
    except SimulationError as exc:
        return exc, machine, tracer
    return None, machine, tracer


@dataclass
class FuzzResult:
    """Outcome of one cell."""

    cell: FuzzCell
    status: str  # "ok" | "violation" | "deadlock" | "error" | pool statuses
    error: str = ""
    error_type: str = ""
    n_ops: int = 0
    shrunk_to: Optional[int] = None
    cycles: int = 0
    elapsed_s: float = 0.0
    artifact: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        d = self.cell.to_dict()
        d.update(
            status=self.status,
            error=self.error,
            error_type=self.error_type,
            n_ops=self.n_ops,
            shrunk_to=self.shrunk_to,
            cycles=self.cycles,
            elapsed_s=round(self.elapsed_s, 3),
            artifact=self.artifact,
        )
        return d


def run_fuzz_cell(
    cell: FuzzCell,
    out_dir="fuzz_artifacts",
    shrink: bool = True,
    shrink_budget: int = DEFAULT_BUDGET,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Run one cell; on failure, dump an artifact and shrink."""
    start = time.perf_counter()
    ops = generate_ops(cell.seed, cell.stress, cell.n_nodes)
    failure, machine, tracer = execute(cell, ops, collect_trace=True)
    elapsed = time.perf_counter() - start
    if failure is None:
        return FuzzResult(
            cell, "ok", n_ops=len(ops), cycles=machine.cycle,
            elapsed_s=elapsed,
        )

    status = status_of(failure)
    shrunk: Optional[List[FuzzOp]] = None
    if shrink:
        def reproduces(candidate: List[FuzzOp]) -> bool:
            exc, _m, _t = execute(cell, candidate)
            return exc is not None and status_of(exc) == status

        shrunk = shrink_ops(ops, reproduces, budget=shrink_budget,
                            progress=progress)

    artifact_path = Path(out_dir) / (
        f"fuzz_{cell.model}_n{cell.n_nodes}_seed{cell.seed}.json"
    )
    write_artifact(
        artifact_path,
        cell,
        ops,
        status=status,
        error=str(failure),
        error_type=type(failure).__name__,
        snapshot=machine_snapshot(machine),
        trace=tracer.to_dicts() if tracer is not None else None,
        shrunk_ops=shrunk,
    )
    return FuzzResult(
        cell,
        status,
        error=str(failure).splitlines()[0][:500],
        error_type=type(failure).__name__,
        n_ops=len(ops),
        shrunk_to=len(shrunk) if shrunk is not None else None,
        cycles=machine.cycle,
        elapsed_s=time.perf_counter() - start,
        artifact=str(artifact_path),
    )


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------


def make_cells(
    seeds: Sequence[int],
    model: str = "base",
    n_nodes: int = 2,
    stress: Optional[StressConfig] = None,
    faults: Optional[FaultConfig] = None,
    max_cycles: int = 3_000_000,
    protocol: str = "smtp-bitvector",
) -> List[FuzzCell]:
    stress = stress or StressConfig()
    faults = faults or FaultConfig()
    return [
        FuzzCell(
            seed=seed, model=model, n_nodes=n_nodes,
            stress=stress, faults=faults, max_cycles=max_cycles,
            protocol=protocol,
        )
        for seed in seeds
    ]


#: Protocol bundles this worker process has already warm-compiled.
_WARMED_BUNDLES: set = set()


def _warm_start(protocol: str) -> None:
    """Compile the selected bundle's handler table once per worker
    process (imports and first-use caches included), so per-cell fuzz
    timings measure stress execution rather than compiler start-up."""
    if protocol in _WARMED_BUNDLES:
        return
    try:
        from repro.protocol import compile as pcompile
        from repro.protocol import registry

        if not pcompile.interp_forced():
            pcompile.compile_bundle(registry.get(protocol))
    except Exception:
        pass  # the cell run surfaces real configuration errors
    _WARMED_BUNDLES.add(protocol)


def _cell_payload(payload: Tuple[Dict[str, object], str, bool, int]) -> Dict[str, object]:
    """Worker-side entry: rebuild the cell, run it, ship a dict back."""
    cell_dict, out_dir, shrink, shrink_budget = payload
    cell = FuzzCell.from_dict(cell_dict)
    _warm_start(cell.protocol)
    result = run_fuzz_cell(
        cell, out_dir=out_dir, shrink=shrink, shrink_budget=shrink_budget
    )
    return result.to_dict()


def _cell_ident(cell: FuzzCell) -> str:
    """Stable identity of a cell for the durability ledger."""
    import hashlib
    import json

    blob = json.dumps(cell.to_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _result_from_outcome(cell: FuzzCell, outcome: Dict[str, object]) -> FuzzResult:
    return FuzzResult(
        cell,
        outcome["status"],
        error=outcome["error"],
        error_type=outcome["error_type"],
        n_ops=outcome["n_ops"],
        shrunk_to=outcome["shrunk_to"],
        cycles=outcome["cycles"],
        elapsed_s=outcome["elapsed_s"],
        artifact=outcome["artifact"],
    )


def run_campaign(
    cells: Sequence[FuzzCell],
    jobs: int = 0,
    out_dir="fuzz_artifacts",
    shrink: bool = True,
    shrink_budget: int = DEFAULT_BUDGET,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
    ledger=None,
) -> List[FuzzResult]:
    """Run every cell, ``jobs`` at a time (0 = inline), in input order.

    ``ledger`` (a :class:`repro.sim.sweep.ResultLedger`) makes the
    campaign durable: finished cells recorded there are replayed
    instead of re-fuzzed, so a killed campaign resumes where it died
    (``python -m repro fuzz --ledger DIR``).
    """
    note = progress or (lambda msg: None)
    results: Dict[int, FuzzResult] = {}
    done = [0]

    def finish(idx: int, result: FuzzResult) -> None:
        results[idx] = result
        done[0] += 1
        tag = result.status
        extra = ""
        if result.shrunk_to is not None:
            extra = f" shrunk {result.n_ops}->{result.shrunk_to}"
        if result.artifact:
            extra += f" artifact={result.artifact}"
        note(
            f"[{done[0]}/{len(cells)}] {result.cell.label}: {tag} "
            f"({result.elapsed_s:.2f}s){extra}"
        )

    if jobs <= 0:
        for idx, cell in enumerate(cells):
            ident = (idx, _cell_ident(cell))
            outcome = ledger.get(ident) if ledger is not None else None
            if outcome is not None:
                finish(idx, _result_from_outcome(cell, outcome))
                continue
            result = run_fuzz_cell(
                cell, out_dir=out_dir, shrink=shrink,
                shrink_budget=shrink_budget,
            )
            if ledger is not None:
                ledger.put(ident, result.to_dict())
            finish(idx, result)
    else:
        from repro.sim.sweep import pool_map

        pending = [
            ((idx, _cell_ident(cell)),
             (cell.to_dict(), str(out_dir), shrink, shrink_budget))
            for idx, cell in enumerate(cells)
        ]

        def on_done(ident, payload, outcome, elapsed, attempts):
            idx = ident[0]
            cell = FuzzCell.from_dict(payload[0])
            if outcome.get("_pool_status") == "crashed":
                finish(idx, FuzzResult(
                    cell, "crashed",
                    error=(
                        f"worker exited with code {outcome.get('exitcode')} "
                        "and no result"
                    ),
                    error_type="WorkerCrash", elapsed_s=elapsed,
                ))
            elif outcome.get("_pool_status") == "timeout":
                finish(idx, FuzzResult(
                    cell, "timeout",
                    error=f"cell exceeded {timeout:g}s wall clock",
                    error_type="FuzzTimeout", elapsed_s=elapsed,
                ))
            else:
                finish(idx, _result_from_outcome(cell, outcome))

        pool_map(pending, _cell_payload, jobs=jobs, timeout=timeout,
                 retries=0, on_done=on_done, ledger=ledger)

    return [results[idx] for idx in range(len(cells))]


def write_fuzz_json(
    out_dir,
    name: str,
    results: Sequence[FuzzResult],
    jobs: int,
    wall_clock_s: float,
) -> Path:
    """Write ``FUZZ_<name>.json``: the campaign's machine-readable record
    (one row per cell plus the summary), sibling to ``BENCH_*.json``."""
    import json
    import os
    import time as _time

    from repro.sim.sweep import code_version

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"FUZZ_{name}.json"
    doc = {
        "schema": 1,
        "name": name,
        "created_unix": round(_time.time(), 3),
        "code_version": code_version(),
        "jobs": jobs,
        "wall_clock_s": round(wall_clock_s, 3),
        **summarize_campaign(results),
        "cells": [r.to_dict() for r in results],
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return path


def summarize_campaign(results: Sequence[FuzzResult]) -> Dict[str, object]:
    by_status: Dict[str, int] = {}
    for r in results:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    return {
        "n_cells": len(results),
        "n_ok": sum(1 for r in results if r.ok),
        "n_failed": sum(1 for r in results if not r.ok),
        "by_status": by_status,
        "artifacts": [r.artifact for r in results if r.artifact],
        "sim_seconds_total": round(sum(r.elapsed_s for r in results), 3),
    }
