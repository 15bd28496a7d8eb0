"""Parallel experiment sweeps with on-disk result caching.

Every paper table/figure is a grid of fully independent simulations:
(model, app, n_nodes, ways, freq, preset) cells that share nothing but
code.  This module fans such grids out across a ``multiprocessing``
worker pool and memoizes each cell on disk, so

* a re-run of any grid only simulates cells whose inputs changed,
* a sweep that died half-way resumes from the completed cells,
* one misbehaving cell (``DeadlockError``, timeout, crash) degrades to
  a recorded failure row instead of killing the sweep.

Cache keys are content hashes over everything that determines a cell's
statistics: the fully-resolved :class:`~repro.common.params.MachineParams`
(so *any* model knob invalidates), the workload's preset sizes, the
cycle budget, and a version hash of the ``repro`` package sources (so a
simulator change invalidates every cell).  See ``benchmarks/README.md``
for the operational view.

Entry points:

* :func:`run_sweep` — run a list of :class:`SweepCell`\\ s.
* :func:`make_grid` / :data:`NAMED_GRIDS` — build cell lists; the
  named grids include one per paper experiment, each with its table
  renderer.
* :class:`ResultCache` — the on-disk cell store.
* :func:`write_bench_json` — emit a machine-readable ``BENCH_*.json``
  trajectory file for a finished sweep.
* :func:`compare` — the perf-gate rule: hold a fresh ``BENCH_*.json``
  document against a committed one (``repro sweep --gate``,
  ``tools/perf_delta.py``).
* :func:`pool_map` — the underlying generic worker pool (one
  terminate-able subprocess per in-flight item); also drives
  :func:`repro.fuzz.campaign.run_campaign`.
* :class:`ResultLedger` — ``pool_map``'s durable completed-item store
  (``repro fuzz --ledger``, the model checker's disk frontier).

``python -m repro sweep`` wraps all of this on the command line.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.core.models import MODELS

#: Bump when the result-record layout changes (invalidates every cell).
SCHEMA_VERSION = 1

DEFAULT_MAX_CYCLES = 30_000_000

# ----------------------------------------------------------------------
# Code version: a stable hash of the simulator sources.
# ----------------------------------------------------------------------

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file (computed once per process).

    Included in every cache key so a simulator change — however small —
    invalidates all cached cells; stale results can never leak across
    commits.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


# ----------------------------------------------------------------------
# Cells and result rows
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One point of an experiment grid.

    ``flags`` holds extra :func:`repro.core.models.make_machine_params`
    keyword arguments (ablation switches, watchdog overrides, …) as a
    sorted tuple of ``(name, value)`` pairs so cells stay hashable.
    """

    app: str
    model: str
    n_nodes: int = 1
    ways: int = 1
    freq_ghz: float = 2.0
    preset: str = "bench"
    flags: Tuple[Tuple[str, object], ...] = ()
    max_cycles: int = DEFAULT_MAX_CYCLES

    @classmethod
    def make(
        cls,
        app: str,
        model: str,
        n_nodes: int = 1,
        ways: int = 1,
        freq_ghz: float = 2.0,
        preset: str = "bench",
        max_cycles: int = DEFAULT_MAX_CYCLES,
        **flags,
    ) -> "SweepCell":
        return cls(
            app=app,
            model=model,
            n_nodes=n_nodes,
            ways=ways,
            freq_ghz=freq_ghz,
            preset=preset,
            flags=tuple(sorted(flags.items())),
            max_cycles=max_cycles,
        )

    @property
    def label(self) -> str:
        return _key_label(row_key(self.to_dict()))

    def to_dict(self) -> Dict[str, object]:
        d = dataclasses.asdict(self)
        d["flags"] = dict(self.flags)
        return d

    # -- cache identity ------------------------------------------------

    def _key_payload(self) -> Dict[str, object]:
        from repro.apps.compile import app_interp_forced
        from repro.core.models import make_machine_params
        from repro.protocol.compile import interp_forced
        from repro.sim.experiments import preset_sizes

        mp = make_machine_params(
            self.model,
            self.n_nodes,
            self.ways,
            self.freq_ghz,
            **dict(self.flags),
        )
        return {
            "schema": SCHEMA_VERSION,
            "code": code_version(),
            "app": self.app,
            "sizes": preset_sizes(self.app, self.preset),
            "machine": dataclasses.asdict(mp),
            "max_cycles": self.max_cycles,
            # The execution-mode escape hatches select the reference
            # paths.  Their stats are bit-identical by contract, but a
            # reference-mode sweep exists to run the reference, so it
            # must never be served the fused paths' cached results (or
            # the reverse).  Compiler version bumps need no entry: they
            # edit sources that code_version() hashes.
            "dense_step": os.environ.get("REPRO_DENSE_STEP", "") == "1",
            "interp": interp_forced(),
            "app_interp": app_interp_forced(),
        }

    def cache_key(self) -> str:
        """Stable content hash of everything that determines the stats."""
        blob = json.dumps(self._key_payload(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()


def summarize_stats(st) -> Dict[str, object]:
    """JSON-serializable scalar summary of one run's MachineStats.

    This is the per-cell record the paper-table renderers
    (:mod:`repro.sim.report`) and every ``BENCH_*.json`` file consume;
    it is the *only* thing the cache stores.
    """
    peaks = st.resource_peaks()
    return dict(
        cycles=st.cycles,
        skipped_cycles=st.skipped_cycles,
        committed=st.committed,
        memory_stall_fraction=st.memory_stall_fraction,
        occupancy_peak=st.protocol_occupancy_peak(),
        occupancy_mean=st.protocol_occupancy_mean(),
        br_mispredict=st.protocol_branch_mispredict_rate(),
        squash_fraction=st.protocol_squash_cycle_fraction(),
        retired_share=st.retired_protocol_share(),
        peaks={k: list(v) for k, v in peaks.items()},
        protocol_instructions=st.protocol_instructions,
    )


@dataclass
class CellResult:
    """Outcome of one cell: a stats row or a recorded failure."""

    cell: SweepCell
    status: str  # "ok" | "failed" | "timeout" | "crashed"
    stats: Optional[Dict[str, object]] = None
    error: str = ""
    error_type: str = ""
    elapsed_s: float = 0.0
    #: One-time prebuild/compile CPU seconds (see :func:`warm_start`),
    #: kept out of ``elapsed_s`` so gates time steady-state simulation.
    compile_s: float = 0.0
    cached: bool = False
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def cycles_per_sec(self) -> float:
        """Simulated cycles per CPU-second (0.0 when unknown —
        failed cells, or cache hits that carry no fresh timing)."""
        if not self.ok or self.elapsed_s <= 0 or self.stats is None:
            return 0.0
        return float(self.stats["cycles"]) / self.elapsed_s

    def to_dict(self) -> Dict[str, object]:
        d = self.cell.to_dict()
        d.update(
            status=self.status,
            stats=self.stats,
            error=self.error,
            error_type=self.error_type,
            elapsed_s=round(self.elapsed_s, 3),
            compile_s=round(self.compile_s, 3),
            cycles_per_sec=round(self.cycles_per_sec, 1),
            cached=self.cached,
            attempts=self.attempts,
        )
        return d


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------


class ResultCache:
    """One JSON file per cell, named by the cell's cache key.

    Only successful runs are stored — failures and timeouts are always
    re-attempted on the next sweep.  ``refresh=True`` ignores results
    from previous processes but still reuses (and rewrites) cells
    computed under this cache object, so a refreshed suite stays
    incremental within itself.
    """

    def __init__(self, root, refresh: bool = False) -> None:
        self.root = Path(root)
        self.refresh = refresh
        self._written: set = set()
        # Validate eagerly so a bad --cache-dir fails up front with the
        # offending path, not mid-sweep on the first put().
        from repro.common.errors import ConfigError

        if self.root.exists() and not self.root.is_dir():
            raise ConfigError(
                f"cache directory {self.root} exists but is not a directory"
            )
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create cache directory {self.root}: {exc}"
            ) from exc

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        if self.refresh and key not in self._written:
            return None
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return record.get("stats")

    def put(self, key: str, result: CellResult) -> None:
        if not result.ok:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": SCHEMA_VERSION,
            "cell": result.cell.to_dict(),
            "stats": result.stats,
            "elapsed_s": round(result.elapsed_s, 3),
        }
        # A temp name per writer process: two sweeps sharing a cache
        # dir and a cell each replace the final file whole and never
        # clobber the other's half-written temp.
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record, sort_keys=True))
        os.replace(tmp, path)
        self._written.add(key)


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------


#: (model, app, preset, flags) combinations this process has already
#: warm-started — an inline sweep runs many cells per process and only
#: pays the prebuild once per distinct configuration.
_WARMED: set = set()


def warm_start(cell: SweepCell) -> float:
    """Prebuild ``cell``'s compile state; return CPU seconds spent.

    Builds the machine (compiling the selected protocol bundle's
    handler table) and constructs the application thread programs
    (instantiating the per-placement decoded-µop template stores) once
    per worker process per configuration, so the timed repeats in
    :func:`run_cell` measure simulation, not one-time compilation.
    The cost is reported separately as ``compile_s`` in sweep rows.
    Build errors are swallowed here — :func:`run_cell` runs the same
    path under its real error handling and surfaces them as rows.
    """
    key = (cell.model, cell.app, cell.preset, cell.n_nodes, cell.ways,
           cell.flags)
    if key in _WARMED:
        return 0.0
    start = time.process_time()
    try:
        from repro.sim.driver import build_machine
        from repro.sim.experiments import app_sources, preset_sizes

        machine = build_machine(
            cell.model, cell.n_nodes, cell.ways, cell.freq_ghz,
            **dict(cell.flags),
        )
        app_sources(cell.app, machine, dict(preset_sizes(cell.app, cell.preset)))
    except Exception:
        pass
    _WARMED.add(key)
    return time.process_time() - start


def run_cell(cell: SweepCell, best_of: int = 1) -> CellResult:
    """Run one cell in the current process, degrading errors to rows.

    ``elapsed_s`` is CPU time of the simulating process, not wall
    clock: the perf-trajectory gate compares per-cell timings across
    runs, and on a shared box wall clock of sub-second cells swings
    far more than the 25% regression headroom.  Even CPU time of one
    sub-second run is noisy under transient neighbour contention, so
    gated sweeps re-run the (deterministic) simulation ``best_of``
    times (:data:`GATE_BEST_OF`) and record the *minimum* — the
    contention-free cost.  One-time compile/prebuild cost is paid up
    front by :func:`warm_start` and reported separately
    (``compile_s``), so ``elapsed_s`` tracks steady-state simulation
    throughput.
    """
    from repro.sim.driver import run_app

    compile_s = warm_start(cell)
    best = float("inf")
    st = None
    for _ in range(best_of):
        start = time.process_time()
        try:
            st = run_app(
                cell.app,
                cell.model,
                n_nodes=cell.n_nodes,
                ways=cell.ways,
                freq_ghz=cell.freq_ghz,
                preset=cell.preset,
                max_cycles=cell.max_cycles,
                **dict(cell.flags),
            )
        except SimulationError as exc:
            return CellResult(
                cell,
                "failed",
                error=str(exc).splitlines()[0][:500],
                error_type=type(exc).__name__,
                elapsed_s=time.process_time() - start,
                compile_s=compile_s,
            )
        best = min(best, time.process_time() - start)
    return CellResult(
        cell, "ok", stats=summarize_stats(st),
        elapsed_s=best, compile_s=compile_s,
    )


def _sweep_entry(cell: SweepCell, best_of: int) -> Dict[str, object]:
    """Worker-side entry for :func:`pool_map`: run one sweep cell."""
    result = run_cell(cell, best_of)
    return {
        "status": result.status,
        "stats": result.stats,
        "error": result.error,
        "error_type": result.error_type,
        "elapsed_s": result.elapsed_s,
        "compile_s": result.compile_s,
    }


# ----------------------------------------------------------------------
# The generic worker pool
# ----------------------------------------------------------------------


def _pool_worker(conn, fn, payload) -> None:
    """Subprocess entry: run ``fn(payload)``, ship the result back.

    If ``fn`` raises, the pipe closes without a result and the parent
    records the item as crashed (and retries it, if allowed).
    """
    try:
        conn.send(fn(payload))
    finally:
        conn.close()


class ResultLedger:
    """Durable completed-item store for :func:`pool_map`.

    One JSON file per finished item, keyed by a hash of the item's
    identity.  ``pool_map`` consults the ledger before spawning a
    worker and records every ``fn`` outcome after, so a killed
    campaign replays finished items instantly on restart and only
    re-runs the interrupted ones.  Timeouts and crashes are never
    recorded — they stay retryable.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, ident: object) -> Path:
        digest = hashlib.sha256(repr(ident).encode()).hexdigest()[:32]
        return self.root / f"{digest}.json"

    def get(self, ident: object) -> Optional[Dict]:
        try:
            return json.loads(self._path(ident).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, ident: object, outcome: Dict) -> None:
        path = self._path(ident)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(outcome, sort_keys=True))
        os.replace(tmp, path)


def pool_map(
    pending: Sequence[Tuple[object, object]],
    fn: Callable[[object], Dict[str, object]],
    jobs: int,
    timeout: Optional[float] = None,
    retries: int = 0,
    on_done: Optional[
        Callable[[object, object, Optional[Dict[str, object]], float, int], None]
    ] = None,
    ledger=None,
) -> None:
    """Fan ``(ident, payload)`` items over one subprocess per in-flight
    item, calling ``fn(payload)`` in the child.

    One process per item (not a long-lived pool) so an overdue or
    wedged simulation can be ``terminate()``-d without poisoning other
    items' workers.  Item runtimes are seconds-to-minutes, so the spawn
    cost is noise.  ``fn`` must be a picklable module-level function
    (or a ``functools.partial`` of one) returning a picklable dict
    without a ``"_pool_status"`` key.

    ``on_done(ident, payload, outcome, elapsed_s, attempts)`` fires once
    per item, in completion order.  ``outcome`` is the dict ``fn``
    returned, or ``{"_pool_status": "timeout"}`` for an item that
    exceeded ``timeout`` wall-clock seconds, or ``{"_pool_status":
    "crashed", "exitcode": ...}`` for a worker that died with no
    result.  Timeouts and crashes are retried up to ``retries`` extra
    attempts before being reported; ``fn`` results never are.

    ``ledger`` (a :class:`ResultLedger`) makes the map
    durable across process restarts: items the ledger already holds
    are replayed to ``on_done`` (with ``attempts=0``) without spawning
    a worker, and every fresh ``fn`` outcome is recorded.  Timeouts
    and crashes are never recorded, so they stay retryable on the next
    invocation.
    """
    note_done = on_done or (lambda *a: None)
    ctx = multiprocessing.get_context()
    queue: List[Tuple[object, object, int]] = []
    for ident, payload in pending:
        outcome = ledger.get(ident) if ledger is not None else None
        if outcome is not None:
            note_done(ident, payload, outcome, 0.0, 0)
        else:
            queue.append((ident, payload, 1))
    running: Dict[object, Tuple[object, object, object, float, int]] = {}

    def harvest(proc, ident, payload, conn, start, attempt) -> None:
        elapsed = time.perf_counter() - start
        if conn.poll():
            msg = conn.recv()
            proc.join()
            conn.close()
            if ledger is not None:
                ledger.put(ident, msg)
            note_done(ident, payload, msg, elapsed, attempt)
            return
        # No result: the worker crashed or was killed.
        proc.join()
        conn.close()
        if attempt <= retries:
            queue.append((ident, payload, attempt + 1))
            return
        note_done(
            ident,
            payload,
            {"_pool_status": "crashed", "exitcode": proc.exitcode},
            elapsed,
            attempt,
        )

    while queue or running:
        while queue and len(running) < jobs:
            ident, payload, attempt = queue.pop(0)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_pool_worker, args=(child_conn, fn, payload))
            proc.start()
            child_conn.close()
            running[proc] = (ident, payload, parent_conn, time.perf_counter(), attempt)

        now = time.perf_counter()
        finished = []
        overdue = []
        for proc, (ident, payload, conn, start, attempt) in running.items():
            if conn.poll() or not proc.is_alive():
                finished.append(proc)
            elif timeout is not None and now - start > timeout:
                overdue.append(proc)
        for proc in overdue:
            ident, payload, conn, start, attempt = running.pop(proc)
            proc.terminate()
            proc.join()
            conn.close()
            if attempt <= retries:
                queue.append((ident, payload, attempt + 1))
            else:
                note_done(
                    ident, payload, {"_pool_status": "timeout"},
                    now - start, attempt,
                )
        for proc in finished:
            ident, payload, conn, start, attempt = running.pop(proc)
            harvest(proc, ident, payload, conn, start, attempt)
        if running and not finished and not overdue:
            time.sleep(0.02)


# ----------------------------------------------------------------------
# The sweep scheduler
# ----------------------------------------------------------------------


def run_sweep(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    best_of: int = 1,
) -> List[CellResult]:
    """Run every cell; return one :class:`CellResult` per input cell,
    in input order (duplicates are simulated once).

    ``jobs``
        Worker processes.  ``0`` runs inline in the current process
        (deterministic single-process mode; ``timeout`` is not
        enforced inline).  ``None`` uses ``os.cpu_count()``.
    ``timeout``
        Wall-clock seconds per cell attempt; an overdue worker is
        terminated and the cell recorded as ``"timeout"``.
    ``retries``
        Extra attempts for *timeout/crash* cells.  Simulation errors
        (``DeadlockError`` etc.) are deterministic and never retried.
    ``best_of``
        Timed runs per simulated cell; ``elapsed_s`` is the minimum
        (see :func:`run_cell`).
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    t0 = time.perf_counter()
    results: Dict[str, CellResult] = {}
    order: List[str] = []
    unique: Dict[str, SweepCell] = {}
    for cell in cells:
        key = cell.cache_key()
        order.append(key)
        unique.setdefault(key, cell)

    note = progress or (lambda msg: None)
    total = len(unique)
    done = 0
    miss_elapsed: List[float] = []

    def finish(key: str, result: CellResult) -> None:
        nonlocal done
        results[key] = result
        done += 1
        if cache is not None and not result.cached:
            cache.put(key, result)
        if not result.cached:
            miss_elapsed.append(result.elapsed_s)
        eta = ""
        if miss_elapsed and done < total:
            per_cell = sum(miss_elapsed) / len(miss_elapsed)
            remaining = per_cell * (total - done) / max(1, jobs or 1)
            eta = f"  eta ~{remaining:.0f}s"
        tag = "cached" if result.cached else result.status
        note(
            f"[{done}/{total}] {result.cell.label}: {tag}"
            f" ({result.elapsed_s:.2f}s){eta}"
        )

    # Cache pass.
    pending: List[Tuple[str, SweepCell]] = []
    for key, cell in unique.items():
        stats = cache.get(key) if cache is not None else None
        if stats is not None:
            finish(key, CellResult(cell, "ok", stats=stats, cached=True))
        else:
            pending.append((key, cell))

    if jobs <= 0:
        for key, cell in pending:
            finish(key, run_cell(cell, best_of))
    elif pending:

        def on_done(key, cell, outcome, elapsed, attempts):
            status = outcome.get("_pool_status")
            if status == "crashed":
                finish(key, CellResult(
                    cell,
                    "crashed",
                    error=(
                        f"worker exited with code {outcome.get('exitcode')} "
                        "and no result"
                    ),
                    error_type="WorkerCrash",
                    elapsed_s=elapsed,
                    attempts=attempts,
                ))
            elif status == "timeout":
                finish(key, CellResult(
                    cell,
                    "timeout",
                    error=f"cell exceeded {timeout:g}s wall clock",
                    error_type="SweepTimeout",
                    elapsed_s=elapsed,
                    attempts=attempts,
                ))
            else:
                finish(key, CellResult(
                    cell,
                    outcome["status"],
                    stats=outcome["stats"],
                    error=outcome["error"],
                    error_type=outcome["error_type"],
                    elapsed_s=outcome["elapsed_s"],
                    compile_s=outcome.get("compile_s", 0.0),
                    attempts=attempts,
                ))

        entry = functools.partial(_sweep_entry, best_of=best_of)
        pool_map(pending, entry, jobs=jobs, timeout=timeout,
                 retries=retries, on_done=on_done)

    wall = time.perf_counter() - t0
    note(
        f"sweep: {total} cells ({total - len(pending)} cached, "
        f"{sum(1 for r in results.values() if not r.ok)} failed) "
        f"in {wall:.1f}s"
    )
    return [results[key] for key in order]


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------


def make_grid(
    apps: Iterable[str],
    models: Iterable[str],
    nodes: Iterable[int] = (1,),
    ways: Iterable[int] = (1,),
    freq_ghz: float = 2.0,
    preset: str = "bench",
    **flags,
) -> List[SweepCell]:
    """Cartesian product grid, in deterministic iteration order."""
    return [
        SweepCell.make(
            app, model, n_nodes=n, ways=w, freq_ghz=freq_ghz,
            preset=preset, **flags,
        )
        for app in apps
        for model in models
        for n in nodes
        for w in ways
    ]


def _grid_smoke() -> List[SweepCell]:
    # 2 apps x 2 models at tiny sizes, plus multi-node cells: a
    # CI-sized sweep (seconds).  The n=2 base cells exercise cross-node
    # coherence traffic and the PP-engine dispatch path at scale — the
    # regime the event-driven scheduler accelerates most — while
    # keeping the grid fast enough for `make smoke`.  The n=16 cell is
    # protocol-heavy: most cycles go to handler execution and message
    # dispatch, so the trajectory gate covers the regime the compiled
    # protocol path speeds up (see the ``pre_compile`` floor in
    # ``BENCH_smoke.json``).
    cells = make_grid(("water", "fft"), ("base", "smtp"), preset="tiny")
    cells += make_grid(("water", "fft"), ("base",), nodes=(2,), preset="tiny")
    cells += make_grid(("fft",), ("base",), nodes=(16,), preset="tiny")
    # MSI n=2 cell: same workload/shape as the n=2 bitvector cell
    # above but on the registered "msi" bundle, so the smoke gate
    # covers the protocol-registry seam and the sweep report can emit
    # a cross-protocol comparison row (`protocol` rides in the cell's
    # flags and therefore in its cache key and gate key).
    cells += make_grid(("fft",), ("base",), nodes=(2,), preset="tiny",
                       protocol="msi")
    # Single-node bench-preset cell: long enough (~50k cycles) for
    # stable timing, app-dominated — the regime the superblock-compiled
    # fetch/issue/commit fast path accelerates.  Gated against the
    # ``pre_app_compile`` floor in ``BENCH_smoke.json``.
    cells += make_grid(("ocean",), ("base",), preset="bench")
    # Protocol-heavy SMTp 2-way n=4 cell at the paper's memory
    # latencies (time_scale=1): two app threads + the protocol thread
    # on every core, cross-node coherence traffic on all four nodes —
    # the regime the fused multi-threaded core path (``_step_nt``) and
    # the active-set scheduler accelerate.  Gated against the
    # ``pre_smt_compile`` floor in ``BENCH_smoke.json``.
    cells += make_grid(("fft",), ("smtp",), nodes=(4,), ways=(2,),
                       preset="tiny", time_scale=1)
    return cells


def _grid_smtp16() -> List[SweepCell]:
    # The 16-node SMTp slice: the frontier cells ROADMAP.md names
    # (16-node × 2-way runs), at tiny preset so the trajectory stays
    # CI-affordable while still exercising the regime the active-set
    # scheduler targets — most of the 16 nodes asleep at any instant,
    # coherence handlers dominating the awake work.  ``make
    # smtp16-smoke`` runs this grid gated against the committed
    # ``BENCH_smtp16.json``.
    cells = make_grid(("fft", "ocean", "radix"), ("smtp",),
                      nodes=(16,), ways=(2,), preset="tiny")
    # One 1-way 16-node cell: the protocol thread shares the core with
    # a single app thread, the dominant paper configuration.
    cells += make_grid(("fft",), ("smtp",), nodes=(16,), ways=(1,),
                       preset="tiny")
    return cells


class NamedGrid:
    """A ``--grid NAME`` entry: its cell builder and, for a paper
    experiment, the renderer that prints the paper's table from the
    finished cells (every cell ok, in grid order).  Calling the entry
    builds its cells.  The renderers import :mod:`repro.sim.report`
    when they run, so importing this module stays cheap."""

    __slots__ = ("build", "render")

    def __init__(
        self,
        build: Callable[[], List[SweepCell]],
        render: Optional[Callable[[Sequence[CellResult]], str]] = None,
    ) -> None:
        self.build = build
        self.render = render

    def __call__(self) -> List[SweepCell]:
        return self.build()


def _paper_cells(models, n_nodes: int, ways=(1,), freq_ghz: float = 2.0,
                 preset: Optional[str] = None, **flags) -> List[SweepCell]:
    """All six applications × ``models`` at one machine shape.  Sizes
    default to ``bench`` below 8 nodes and ``tiny`` at 8 or more,
    which keeps the 16- and 32-node matrices affordable (DESIGN.md
    §2)."""
    from repro.sim.experiments import APPS

    if preset is None:
        preset = "bench" if n_nodes < 8 else "tiny"
    return make_grid(APPS, models, nodes=(n_nodes,), ways=ways,
                     freq_ghz=freq_ghz, preset=preset, **flags)


def _by_app(results: Sequence[CellResult], key) -> Dict[str, Dict]:
    """``{app: {key(cell): stats}}``, applications in grid order."""
    out: Dict[str, Dict] = {}
    for r in results:
        out.setdefault(r.cell.app, {})[key(r.cell)] = r.stats
    return out


def _per_app(results: Sequence[CellResult]) -> Dict[str, Dict]:
    return {r.cell.app: r.stats for r in results}


def _figure(title: str, n_nodes: int, ways: int,
            freq_ghz: float = 2.0) -> NamedGrid:
    """Figures 2-11: every model × application at one machine shape."""

    def render(results: Sequence[CellResult]) -> str:
        from repro.sim.report import normalized_exec_table

        return normalized_exec_table(
            title, _by_app(results, lambda c: c.model), MODELS)

    return NamedGrid(
        lambda: _paper_cells(MODELS, n_nodes, (ways,), freq_ghz), render)


#: Thread counts per node of the Tables 5/6 speedup columns.
SPEEDUP_WAYS = (1, 2, 4)


def _speedup(title: str, model: str) -> NamedGrid:
    """Tables 5/6: a 1-node 1-way reference and 16 nodes at 1/2/4
    ways, all ``tiny`` — a self-relative speedup must hold the problem
    size fixed."""

    def build() -> List[SweepCell]:
        return (_paper_cells((model,), 1, preset="tiny")
                + _paper_cells((model,), 16, SPEEDUP_WAYS, preset="tiny"))

    def render(results: Sequence[CellResult]) -> str:
        from repro.sim.report import speedup_table

        rows = _by_app(results, lambda c: (c.n_nodes, c.ways))
        return speedup_table(
            title,
            {app: per[(1, 1)] for app, per in rows.items()},
            {app: {w: per[(16, w)] for w in SPEEDUP_WAYS}
             for app, per in rows.items()},
            SPEEDUP_WAYS,
        )

    return NamedGrid(build, render)


#: Table 7's models, in the paper's column order.
OCCUPANCY_MODELS = ("base", "intperfect", "int512kb", "smtp")


def _table7(results: Sequence[CellResult]) -> str:
    from repro.sim.report import occupancy_table

    return occupancy_table(
        "Table 7: 16-node protocol occupancy (1-way nodes)",
        _by_app(results, lambda c: c.model), OCCUPANCY_MODELS)


def _table8(results: Sequence[CellResult]) -> str:
    from repro.sim.report import protocol_thread_table

    return protocol_thread_table(
        "Table 8: protocol thread characteristics (16 nodes, 1-way)",
        _per_app(results))


def _table9(results: Sequence[CellResult]) -> str:
    from repro.sim.report import resource_occupancy_table

    return resource_occupancy_table(
        "Table 9: active protocol thread occupancy (16 nodes, 1-way)",
        _per_app(results))


#: The §2 ablations, each one flag against the shared SMTp reference:
#: (flag, value, title, note, column).
ABLATIONS = (
    ("look_ahead_scheduling", False,
     "Ablation: Look-Ahead Scheduling disabled",
     "(positive = slower without LAS; paper: LAS helps up to 3.9%)",
     "slowdown without LAS"),
    ("protocol_bitops", False,
     "Ablation: popcount/ctz as software loops",
     "(paper: <0.3% average, <=0.8% worst case)",
     "slowdown without bit ops"),
    ("perfect_protocol_caches", True,
     "Ablation: private perfect protocol caches",
     "(negative = faster with perfect caches; paper: 0.9-5.1%)",
     "delta with perfect caches"),
)


def _ablation_cells() -> List[SweepCell]:
    cells = _paper_cells(("smtp",), 2)
    for flag, value, *_ in ABLATIONS:
        cells += _paper_cells(("smtp",), 2, **{flag: value})
    return cells


def _ablation_tables(results: Sequence[CellResult]) -> str:
    from repro.sim.report import ablation_table

    rows = _by_app(results, lambda c: c.flags)
    ref = {app: per[()] for app, per in rows.items()}
    return "\n\n".join(
        ablation_table(
            title, note, column, ref,
            {app: per[((flag, value),)] for app, per in rows.items()},
        )
        for flag, value, title, note, column in ABLATIONS
    )


#: Named grids for ``python -m repro sweep --grid <name>``: the CI
#: perf-trajectory grids, then one per paper figure, table and the §2
#: ablations (DESIGN.md §4), each with its paper table.  Tables 7-9
#: are Figure 5's 16-node 1-way cells, so the cache shares them.
NAMED_GRIDS: Dict[str, NamedGrid] = {
    "smoke": NamedGrid(_grid_smoke),
    "smtp16": NamedGrid(_grid_smtp16),
    "fig2": _figure("Figure 2: single node, 1-way", 1, 1),
    "fig3": _figure("Figure 3: single node, 2-way", 1, 2),
    "fig4": _figure("Figure 4: single node, 4-way", 1, 4),
    "fig5": _figure("Figure 5: 16 nodes, 1-way", 16, 1),
    "fig6": _figure("Figure 6: 16 nodes, 2-way", 16, 2),
    "fig7": _figure("Figure 7: 16 nodes, 4-way (64 threads)", 16, 4),
    "fig8": _figure("Figure 8: 32 nodes, 1-way", 32, 1),
    "fig9": _figure("Figure 9: 32 nodes, 2-way (64 threads)", 32, 2),
    "fig10": _figure("Figure 10: 8 nodes, 1-way, 4 GHz", 8, 1, 4.0),
    "fig11": _figure("Figure 11: 8 nodes, 1-way, 2 GHz", 8, 1, 2.0),
    "table5": _speedup("Table 5: 16-node speedup in Base", "base"),
    "table6": _speedup("Table 6: 16-node speedup in SMTp", "smtp"),
    "table7": NamedGrid(lambda: _paper_cells(OCCUPANCY_MODELS, 16), _table7),
    "table8": NamedGrid(lambda: _paper_cells(("smtp",), 16), _table8),
    "table9": NamedGrid(lambda: _paper_cells(("smtp",), 16), _table9),
    "ablations": NamedGrid(_ablation_cells, _ablation_tables),
}


# ----------------------------------------------------------------------
# Perf-trajectory regression gate
# ----------------------------------------------------------------------

#: A fresh timing may be up to this factor slower than the committed
#: trajectory before the gate fails (timing-noise headroom).
GATE_SLOWDOWN_LIMIT = 1.25

#: Absolute seconds of extra headroom per cell.  Sub-0.1s cells have
#: proportionally larger timer noise than the ratio limit can absorb;
#: 20ms is far below any regression worth gating on.
GATE_SLACK_S = 0.02

#: Timed runs per cell in a gated sweep (the row keeps the minimum).
GATE_BEST_OF = 5

#: ``configs`` row fields (``BENCH_model.json``) that must match
#: exactly: the model checker's state-space counts.
COUNT_FIELDS = ("states", "sym_states", "transitions", "pruned", "max_depth")

#: Frozen reference-build blocks a BENCH doc may carry, each gated
#: independently: the pre-handler-compilation interpreter build, the
#: pre-app-compilation build (before the superblock-compiled app
#: programs and the fused fetch/issue/commit fast path), and the
#: pre-SMT-compilation build (before the fused multi-threaded
#: ``_step_nt`` core path and the active-set machine scheduler).
PRE_BUILD_BLOCKS: Tuple[Tuple[str, str], ...] = (
    ("pre_compile", "pre-compile build"),
    ("pre_app_compile", "pre-app-compile build"),
    ("pre_smt_compile", "pre-SMT-compile build"),
)


def warm_up_cpu(seconds: float = 1.0) -> None:
    """Busy-spin for ``seconds`` of wall clock before a timed sweep.

    A freshly spawned process occasionally starts on a cold core whose
    clock takes ~1s to ramp to full speed; the cells timed during that
    window read 1.5x slow and trip the gate spuriously.  Burning one
    second first lets the governor settle.
    """
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        for i in range(10_000):
            acc = (acc + i * i) % 1_000_003


def measure_reference_s(repeats: int = 5) -> float:
    """CPU seconds for a fixed pure-Python calibration workload.

    Shared boxes change speed between runs (frequency scaling, noisy
    neighbours) by more than the gate's 25% headroom — uniformly
    across all cells.  Timing the same deterministic busy-loop
    alongside every sweep gives the gate a box-speed yardstick:
    comparisons use ``elapsed_s / reference_s``, so a globally slower
    (or faster) box cancels out and only genuine per-cell regressions
    remain.  Median-of-``repeats``: the old best-of-3 minimum read the
    one contention-free repeat on a loaded box, under-reporting the
    speed the *cells* were actually timed at and biasing every
    normalized comparison fast; the median moves with the same load
    the cells saw while still shedding single-repeat spikes.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.process_time()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.process_time() - t0)
    return statistics.median(samples)


def row_key(row: Dict[str, object]) -> Tuple:
    """Identity of a cell row for baseline matching (config, not timing)."""
    flags = row.get("flags") or {}
    return (
        row.get("app"), row.get("model"), row.get("n_nodes"),
        row.get("ways"), row.get("freq_ghz"), row.get("preset"),
        tuple(sorted(flags.items())),
    )


def _key_label(key: Tuple) -> str:
    app, model, n_nodes, ways, freq_ghz, preset, flags = key
    extra = "".join(f" {k}={v}" for k, v in flags)
    return f"{app}/{model} n={n_nodes} w={ways} {freq_ghz:g}GHz {preset}{extra}"


def _reference_s(doc: Dict[str, object]) -> float:
    return float(doc.get("reference_s") or 0.0)


def _box_scale(fresh_ref: float, base_ref: float) -> float:
    """How many times slower this box reads than the baseline's.

    1.0 unless both calibrations are known.  Clamped at 1.0: the
    calibration only ever *excuses* slowness.  The loop is a rougher
    workload than the simulator, so a fast reading must neither
    tighten the slowdown limit nor inflate a speedup past its raw
    value (a floor cannot pass on calibration noise alone).
    """
    if fresh_ref > 0 and base_ref > 0:
        return max(1.0, fresh_ref / base_ref)
    return 1.0


def _fresh_timing(row: Dict[str, object]) -> float:
    """A row's CPU seconds, or 0.0 when it carries no fresh timing
    (failed, or served from the cache)."""
    if row.get("status") != "ok" or row.get("cached"):
        return 0.0
    return float(row.get("elapsed_s") or 0.0)


def _cycles(row: Dict[str, object]) -> float:
    return float((row.get("stats") or {}).get("cycles") or 0.0)


def _slowdown(
    label: str, fresh_s: float, base_s: float, scale: float, limit: float,
    note: str = "",
) -> Tuple[bool, str]:
    failed = fresh_s > base_s * scale * limit + GATE_SLACK_S
    ratio = fresh_s / (base_s * scale) if base_s > 0 else float("inf")
    return failed, (
        f"{label}: {'FAIL' if failed else 'ok'} ({fresh_s:.3f}s vs "
        f"{base_s:.3f}s baseline, {ratio:.2f}x, limit {limit:.2f}x{note})"
    )


def compare(
    baseline_doc: Dict[str, object],
    fresh_doc: Dict[str, object],
    limit: float = GATE_SLOWDOWN_LIMIT,
) -> Tuple[int, List[str]]:
    """Hold a fresh BENCH document against a committed one.

    Returns ``(n_failures, report_lines)``; this is the whole perf-gate
    rule, behind both ``repro sweep --gate`` and ``tools/perf_delta.py``.

    * **Sweep cells** (``cells``) match by :func:`row_key`.  A fresh
      ``elapsed_s`` fails when it exceeds the baseline's by more than
      ``limit`` plus :data:`GATE_SLACK_S`, after box-speed
      normalization by the two documents' ``reference_s`` (see
      :func:`measure_reference_s` and :func:`_box_scale`).  Failed and
      cached rows SKIP (cache hits carry no timing), rows without a
      baseline are NEW and baseline rows absent from the fresh run are
      MISSING; none of these fail.
    * **Reference-build blocks** (:data:`PRE_BUILD_BLOCKS`) of the
      baseline report each matching fresh cell's cycles/sec speedup
      over that recorded build, normalized by the block's own
      ``reference_s``; a row carrying ``min_speedup`` fails below that
      floor, the others are display-only.
    * **Model-checker rows** (``configs``, ``BENCH_model.json``) match
      by key.  A row missing from the fresh run or whose
      :data:`COUNT_FIELDS` differ fails outright; ``seconds`` follows
      the slowdown rule above.

    Raises ``ValueError`` when either document has neither ``cells``
    nor ``configs``, which would compare nothing and pass.
    """
    for name, doc in (("baseline", baseline_doc), ("fresh", fresh_doc)):
        if "cells" not in doc and "configs" not in doc:
            raise ValueError(
                f"{name} document has neither cells nor configs; "
                f"nothing to compare"
            )
    fresh_ref = _reference_s(fresh_doc)
    base_ref = _reference_s(baseline_doc)
    scale = _box_scale(fresh_ref, base_ref)
    failures = 0
    lines: List[str] = []
    if scale != 1.0:
        lines.append(
            f"box speed {scale:.2f}x baseline (calibration "
            f"{fresh_ref:.3f}s vs {base_ref:.3f}s); comparing normalized "
            f"timings"
        )

    base = {
        row_key(row): row for row in baseline_doc.get("cells", [])
        if _fresh_timing(row) > 0
    }
    seen = set()
    timed: List[Tuple[Tuple, str, float, float]] = []
    for row in fresh_doc.get("cells", []):
        key = row_key(row)
        label = _key_label(key)
        seen.add(key)
        elapsed = _fresh_timing(row)
        if row.get("status") != "ok":
            lines.append(f"{label}: SKIP ({row.get('status')})")
            continue
        if elapsed <= 0:
            lines.append(f"{label}: SKIP (cached; no fresh timing)")
            continue
        cycles = _cycles(row)
        timed.append((key, label, elapsed, cycles))
        base_row = base.get(key)
        if base_row is None:
            lines.append(f"{label}: NEW ({elapsed:.3f}s, no baseline)")
            continue
        base_s = float(base_row["elapsed_s"])
        base_cycles = _cycles(base_row)
        note = ""
        if base_cycles > 0:
            speedup = (cycles / elapsed) * scale / (base_cycles / base_s)
            note = f", {speedup:.2f}x cyc/s"
        failed, line = _slowdown(label, elapsed, base_s, scale, limit, note)
        failures += failed
        lines.append(line)
    for key in base:
        if key not in seen:
            lines.append(f"{_key_label(key)}: MISSING in fresh run")

    for block_key, block_desc in PRE_BUILD_BLOCKS:
        block = baseline_doc.get(block_key)
        if not isinstance(block, dict):
            continue
        pre = {row_key(row): row for row in block.get("cells", [])}
        pre_scale = _box_scale(fresh_ref, _reference_s(block))
        for key, label, elapsed, cycles in timed:
            row = pre.get(key)
            if row is None:
                continue
            pre_s = float(row.get("elapsed_s") or 0.0)
            pre_cycles = float(row.get("cycles") or 0.0)
            if pre_s <= 0 or pre_cycles <= 0:
                continue
            speedup = (cycles / elapsed) * pre_scale / (pre_cycles / pre_s)
            floor = float(row.get("min_speedup") or 0.0)
            failed = speedup < floor
            failures += failed
            floor_txt = f", floor {floor:.2f}x" if floor > 0 else ""
            lines.append(
                f"{label}: {'FAIL' if failed else 'ok'} {speedup:.2f}x "
                f"cyc/s vs {block_desc} ({block.get('commit', '?')})"
                f"{floor_txt}"
            )

    base_cfg: Dict[str, Dict] = baseline_doc.get("configs") or {}
    fresh_cfg: Dict[str, Dict] = fresh_doc.get("configs") or {}
    for key in sorted(base_cfg):
        row = fresh_cfg.get(key)
        if row is None:
            failures += 1
            lines.append(f"{key}: FAIL (missing in fresh run)")
            continue
        drift = [
            f"{field} {base_cfg[key].get(field)} -> {row.get(field)}"
            for field in COUNT_FIELDS
            if base_cfg[key].get(field) != row.get(field)
        ]
        if drift:
            failures += 1
            lines.append(f"{key}: FAIL (counts differ: {', '.join(drift)})")
            continue
        failed, line = _slowdown(
            key, float(row["seconds"]), float(base_cfg[key]["seconds"]),
            scale, limit,
        )
        failures += failed
        lines.append(line)
    for key in sorted(set(fresh_cfg) - set(base_cfg)):
        lines.append(
            f"{key}: NEW ({float(fresh_cfg[key]['seconds']):.3f}s, "
            f"no baseline)"
        )
    return failures, lines


# ----------------------------------------------------------------------
# BENCH_*.json trajectory files
# ----------------------------------------------------------------------


def write_bench_json(
    out_dir,
    name: str,
    results: Sequence[CellResult],
    jobs: int,
    wall_clock_s: float,
    reference_s: Optional[float] = None,
    baseline: Optional[Dict[str, object]] = None,
) -> Path:
    """Write ``BENCH_<name>.json`` summarizing a finished sweep.

    The file is the machine-readable perf trajectory: one record per
    cell (status, cycles, elapsed CPU seconds, cache provenance) plus
    sweep-level metadata — including the box-speed calibration
    ``reference_s`` the gate normalizes by — so successive commits'
    files can be diffed or plotted directly.

    ``baseline`` is the gate's committed document: its frozen
    reference-build blocks (:data:`PRE_BUILD_BLOCKS`) are carried over,
    so the speedup floors survive every refresh.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    doc = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "created_unix": round(time.time(), 3),
        "code_version": code_version(),
        "jobs": jobs,
        "wall_clock_s": round(wall_clock_s, 3),
        "reference_s": round(reference_s, 4) if reference_s else None,
        "n_cells": len(results),
        "n_ok": sum(1 for r in results if r.ok),
        "n_failed": sum(1 for r in results if not r.ok),
        "n_cached": sum(1 for r in results if r.cached),
        "sim_seconds_total": round(sum(r.elapsed_s for r in results), 3),
        "cells": [r.to_dict() for r in results],
    }
    for key, _ in PRE_BUILD_BLOCKS:
        block = (baseline or {}).get(key)
        if block is not None:
            doc[key] = block
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return path
