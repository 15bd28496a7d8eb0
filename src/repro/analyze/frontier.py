"""Disk-backed sharded BFS frontier for deep model-checking runs.

In-memory exploration tops out when the visited set and frontier no
longer fit in one process.  This module runs the same reduced BFS as
:mod:`repro.analyze.model` but keeps both on disk, sharded by a hash
of the canonical state, and advances the search **wave by wave**
(breadth level by breadth level):

1. Wave ``k`` lives as ``wave_%04d/shard_%03d.pkl`` files, each a
   pickled list of BFS entries ``(state, trace, σ, λ)`` — the same
   canonical-frame bookkeeping the in-memory search uses, so
   counterexample traces stay concrete.
2. Every shard is expanded by a :func:`repro.sim.pool.pool_map`
   worker (:func:`_expand_shard`), which writes its successors
   bucketed by target shard to ``out_%04d/from*_to*.pkl`` and returns
   only JSON-safe statistics.  Each finished expansion is recorded in
   a per-wave :class:`repro.sim.pool.ResultStore`, so a killed run
   replays finished shards instantly on restart — the same store fuzz
   campaigns use (``repro fuzz --ledger``).
3. The coordinator merges the buckets per target shard against the
   cumulative per-shard visited-digest snapshots
   (``visited_%03d.wave_%04d.pkl``), writes wave ``k+1``, and only
   then bumps ``meta.json`` — the single commit point.  Every file is
   written whole (:func:`repro.sim.pool.write_atomic`), and per-wave
   worker statistics fold into the meta exactly once (at the bump),
   so a kill at any instant resumes without losing or double-counting
   states.

``meta.json`` records the run's configuration, including the code
version and a digest of the handler table under check: a directory
written by other sources or for another table is refused, never
resumed.

Visited states are deduplicated by 128-bit BLAKE2 digests of the
canonical state key rather than the states themselves; at the state
counts reachable here (≪ 2^40) a collision — which would silently
drop a state — is beyond negligible, and the in-memory path that CI
exercises uses exact keys.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigError
from repro.sim import pool

from repro.analyze import symmetry as sym
from repro.analyze.model import (
    ExploreResult,
    MState,
    Search,
    Violation,
    root_entry,
)

#: Fixed once per frontier directory (recorded in meta.json).
MIN_SHARDS = 8
MAX_SHARDS = 64


def _key_digest(key: Tuple) -> bytes:
    return hashlib.blake2b(repr(key).encode(), digest_size=16).digest()


def _digest(st: MState) -> bytes:
    return _key_digest(sym.state_key(st))


def _ident(st: MState, key: Optional[Tuple]) -> bytes:
    """A successor's identity on disk: the digest of its canonical key
    (``None`` when symmetry reduction is off)."""
    return _key_digest(key) if key is not None else _digest(st)


def _shard_of(digest: bytes, n_shards: int) -> int:
    return int.from_bytes(digest[:4], "big") % n_shards


def _table_digest(table) -> str:
    """Digest of a handler table's placed programs (names, PCs and
    instructions) — what the mirror executes."""
    blob = repr(list(table.by_name.values())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _wave_dir(root: Path, wave: int) -> Path:
    return root / f"wave_{wave:04d}"


def _out_dir(root: Path, wave: int) -> Path:
    return root / f"out_{wave:04d}"


def _visited_path(root: Path, shard: int, wave: int) -> Path:
    return root / f"visited_{shard:03d}.wave_{wave:04d}.pkl"


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------


def _expand_shard(payload: Dict[str, object]) -> Dict[str, object]:
    """pool_map worker: expand one frontier shard one BFS level.

    Writes successor buckets to the out directory (atomically) and
    returns JSON-safe statistics — violations as plain dicts, states
    only inside the pickled bucket files.  Must stay idempotent: the
    store replays recorded outcomes without re-running us, so
    everything we do besides the return value lands in files keyed by
    (wave, source shard) that a redo would simply rewrite.
    """
    entries = pickle.loads(Path(str(payload["shard"])).read_bytes())
    out_dir = Path(str(payload["out_dir"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    src = int(payload["shard_index"])  # type: ignore[arg-type]
    n_shards = int(payload["n_shards"])  # type: ignore[arg-type]
    depth = payload["depth"]

    found: Dict[bytes, Tuple] = {}  # digest -> (orbit, *entry)
    transitions = pruned = 0
    max_depth = 0
    truncated = False
    violations: List[Dict[str, object]] = []

    # Shard files are only written non-empty.
    search = Search(
        entries[0][0], payload["layout"], payload["table"],
        payload.get("bundle"), bool(payload["reduce_sym"]),
        bool(payload["reduce_por"]),
    )
    for entry in entries:
        max_depth = max(max_depth, len(entry[1]))
        if depth is not None and len(entry[1]) >= int(depth):  # type: ignore[arg-type]
            truncated = True
            continue
        kids, n_succ, pr, violation = search.expand(entry, found, _ident)
        if violation is not None:
            violations.append(
                dict(violation._asdict(), trace=list(violation.trace))
            )
            continue
        transitions += n_succ
        pruned += pr
        for child, orbit, dg in kids:
            found[dg] = (orbit,) + child

    buckets: Dict[int, Dict[bytes, Tuple]] = {}
    for dg, item in found.items():
        buckets.setdefault(_shard_of(dg, n_shards), {})[dg] = item
    for target, bucket in buckets.items():
        pool.write_atomic(
            out_dir / f"from{src:03d}_to{target:03d}.pkl",
            pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL),
        )
    return {
        "status": "ok",
        "transitions": transitions,
        "pruned": pruned,
        "max_depth": max_depth,
        "truncated": truncated,
        "violations": violations,
    }


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


def _result_from_meta(meta: Dict[str, object]) -> ExploreResult:
    stats = meta["stats"]  # type: ignore[index]
    v = meta.get("violation")
    violation = None
    if v is not None:
        violation = Violation(
            str(v["code"]), str(v["status"]), str(v["message"]),  # type: ignore[index]
            tuple(v["trace"]),  # type: ignore[index]
        )
    return ExploreResult(
        states=int(stats["states"]),  # type: ignore[index]
        transitions=int(stats["transitions"]),  # type: ignore[index]
        truncated=bool(stats["truncated"]),  # type: ignore[index]
        violation=violation,
        sym_states=int(stats["sym_states"]),  # type: ignore[index]
        pruned=int(stats["pruned"]),  # type: ignore[index]
        max_depth=int(stats["max_depth"]),  # type: ignore[index]
    )


def _purge_waves_below(root: Path, wave: int, n_shards: int) -> None:
    """Remove artifacts of fully committed waves (< ``wave``)."""
    for path in root.glob("wave_*"):
        if path.is_dir() and int(path.name.split("_")[1]) < wave:
            shutil.rmtree(path, ignore_errors=True)
    for path in root.glob("out_*"):
        if path.is_dir() and int(path.name.split("_")[1]) < wave:
            shutil.rmtree(path, ignore_errors=True)
    ledgers = root / "ledger"
    if ledgers.is_dir():
        for path in ledgers.glob("wave_*"):
            if int(path.name.split("_")[1]) < wave:
                shutil.rmtree(path, ignore_errors=True)
    for path in root.glob("visited_*.wave_*.pkl"):
        if int(path.stem.split("wave_")[1]) < wave:
            path.unlink(missing_ok=True)


def explore_disk(
    init: MState,
    layout,
    table,
    frontier_dir: str,
    jobs: int,
    max_states: int,
    depth: Optional[int],
    reduce_sym: bool = True,
    reduce_por: bool = True,
    bundle=None,
) -> ExploreResult:
    """Run the reduced BFS with the frontier sharded on disk.

    ``frontier_dir`` is created if missing; if it already holds a run
    with the *same* configuration — code version and handler table
    included — the search resumes from its last committed wave (a
    finished run just returns its recorded result).  A different
    configuration in the same directory is a ``ConfigError`` — deep
    runs are precious, never clobber one.
    """
    root = Path(frontier_dir)
    root.mkdir(parents=True, exist_ok=True)
    config = {
        "code": pool.code_version(),
        "table": _table_digest(table),
        "n_nodes": len(init.nodes),
        "n_lines": len(init.entries),
        "loads": init.nodes[0].loads,
        "stores": init.nodes[0].stores,
        "max_states": max_states,
        "depth": depth,
        "reduce_sym": reduce_sym,
        "reduce_por": reduce_por,
        "protocol": bundle.name if bundle is not None else "smtp-bitvector",
    }
    meta_path = root / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if meta["config"] != config:
            raise ConfigError(
                f"frontier dir {root} holds a different run "
                f"({meta['config']}); use a fresh --frontier-dir"
            )
        if meta.get("done"):
            return _result_from_meta(meta)
        n_shards = int(meta["n_shards"])
    else:
        n_shards = min(MAX_SHARDS, max(MIN_SHARDS, 2 * jobs))
        entry = root_entry(init)
        dg = _digest(entry[0])
        shard = _shard_of(dg, n_shards)
        wave0 = _wave_dir(root, 0)
        wave0.mkdir(exist_ok=True)
        pool.write_atomic(
            wave0 / f"shard_{shard:03d}.pkl",
            pickle.dumps([entry], protocol=pickle.HIGHEST_PROTOCOL),
        )
        pool.write_atomic(
            _visited_path(root, shard, 0),
            pickle.dumps({dg}, protocol=pickle.HIGHEST_PROTOCOL),
        )
        meta = {
            "config": config,
            "n_shards": n_shards,
            "wave": 0,
            "stats": {
                "states": 1, "sym_states": 1, "transitions": 0,
                "pruned": 0, "max_depth": 0, "truncated": False,
            },
        }
        pool.write_atomic(meta_path, json.dumps(meta, indent=1).encode())

    while True:
        wave = int(meta["wave"])
        stats = dict(meta["stats"])
        _purge_waves_below(root, wave, n_shards)
        wave_dir = _wave_dir(root, wave)
        shards = sorted(wave_dir.glob("shard_*.pkl")) if wave_dir.is_dir() else []
        if not shards:
            meta["done"] = True
            pool.write_atomic(meta_path, json.dumps(meta, indent=1).encode())
            return _result_from_meta(meta)

        out_dir = _out_dir(root, wave)
        store = pool.ResultStore(root / "ledger" / f"wave_{wave:04d}")
        outcomes: Dict[int, Dict[str, object]] = {}
        pending = []
        for path in shards:
            idx = int(path.stem.split("_")[1])
            recorded = store.get(f"shard_{idx:03d}")
            if recorded is not None:
                outcomes[idx] = recorded
                continue
            pending.append((idx, {
                "shard": str(path),
                "shard_index": idx,
                "out_dir": str(out_dir),
                "n_shards": n_shards,
                "layout": layout,
                "table": table,
                "depth": depth,
                "reduce_sym": reduce_sym,
                "reduce_por": reduce_por,
                "bundle": bundle,
            }))

        def on_done(idx, payload, outcome, elapsed, attempts) -> None:
            if outcome["status"] == "ok":
                store.put(f"shard_{idx:03d}", outcome)
            outcomes[idx] = outcome

        pool.pool_map(pending, _expand_shard, jobs=jobs, on_done=on_done)

        violations: List[Dict[str, object]] = []
        # In shard order, so ties between equally short violations
        # do not depend on which worker finished first.
        for _, outcome in sorted(outcomes.items()):
            if outcome["status"] != "ok":
                raise ConfigError(
                    f"frontier worker failed: {outcome['error']}"
                )
            stats["transitions"] = (
                int(stats["transitions"]) + int(outcome["transitions"])
            )
            stats["pruned"] = int(stats["pruned"]) + int(outcome["pruned"])
            stats["max_depth"] = max(
                int(stats["max_depth"]), int(outcome["max_depth"])
            )
            stats["truncated"] = (
                bool(stats["truncated"]) or bool(outcome["truncated"])
            )
            violations.extend(outcome["violations"])  # type: ignore[arg-type]

        if violations:
            best = min(violations, key=lambda v: len(v["trace"]))  # type: ignore[arg-type]
            meta["stats"] = stats
            meta["violation"] = best
            meta["done"] = True
            pool.write_atomic(meta_path, json.dumps(meta, indent=1).encode())
            return _result_from_meta(meta)

        # Merge: dedupe each target bucket against its cumulative
        # visited digests, emit wave+1 shards, then commit the meta.
        next_dir = _wave_dir(root, wave + 1)
        next_dir.mkdir(exist_ok=True)
        for target in range(n_shards):
            prev_visited = _visited_path(root, target, wave)
            visited: Set[bytes] = (
                pickle.loads(prev_visited.read_bytes())
                if prev_visited.exists() else set()
            )
            fresh: Dict[bytes, Tuple] = {}
            for path in sorted(out_dir.glob(f"from*_to{target:03d}.pkl")):
                for dg, entry in pickle.loads(path.read_bytes()).items():
                    if dg not in visited and dg not in fresh:
                        fresh[dg] = entry
            kept = []
            for dg in sorted(fresh):
                if int(stats["states"]) >= max_states:
                    stats["truncated"] = True
                    break
                orbit, st, trace, sig, lam = fresh[dg]
                stats["states"] = int(stats["states"]) + 1
                stats["sym_states"] = int(stats["sym_states"]) + int(orbit)
                visited.add(dg)
                kept.append((st, trace, sig, lam))
            if kept:
                pool.write_atomic(
                    next_dir / f"shard_{target:03d}.pkl",
                    pickle.dumps(kept, protocol=pickle.HIGHEST_PROTOCOL),
                )
            pool.write_atomic(
                _visited_path(root, target, wave + 1),
                pickle.dumps(visited, protocol=pickle.HIGHEST_PROTOCOL),
            )
        meta["wave"] = wave + 1
        meta["stats"] = stats
        pool.write_atomic(meta_path, json.dumps(meta, indent=1).encode())
