"""Checkpoint of the model checker's BFS on disk (``--frontier-dir``).

The search is :func:`repro.analyze.model._bfs`, the one an in-memory
run makes; a checkpoint only records it.  After each finished BFS
level the search commits:

1. ``level_%05d.pkl`` — the entries ``(state, trace, σ, λ)`` admitted
   into the next level, as consecutive pickles of :data:`CHUNK`
   entries each;
2. ``meta.json`` — the run's configuration and the search's counts
   after that level: the single commit point.

Both are written whole (:func:`repro.sim.pool.write_atomic`).  A
re-run with the same configuration loads the committed levels: their
states are the visited set and the last one is the frontier, so the
search continues in the same order and a killed run returns what an
uninterrupted one does, counts and trace alike.  A level file written
after the last meta bump is ignored and rewritten.  When the search
ends, the meta records its result and the level files are dropped: a
finished directory replays that result.

``meta.json`` records the code version and a digest of the handler
table under check: a directory written by other sources or for
another table is refused, never resumed.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.sim import pool

from repro.analyze.model import Entry, ExploreResult, MState, Violation

#: Entries per pickle in a level file.  A pickler keeps every object it
#: has written alive until it finishes, including the argument tuple
#: each NamedTuple is rebuilt from, so one pickle of a whole level
#: would briefly hold a copy of the level's fields (+30% peak RSS on
#: n3-L1-loads1-stores1 capped at 30k states).  Siblings sit next to
#: each other in a level, so chunks still share most of what they can.
CHUNK = 1024


def _table_digest(table) -> str:
    """Digest of a handler table's placed programs (names, PCs and
    instructions) — what the mirror executes."""
    blob = repr(list(table.by_name.values())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _to_json(result: ExploreResult) -> Dict[str, object]:
    v = result.violation
    return dict(
        result._asdict(),
        violation=None if v is None else dict(v._asdict(), trace=list(v.trace)),
    )


def _from_json(doc: Dict[str, object]) -> ExploreResult:
    v = doc["violation"]
    violation = None
    if v is not None:
        violation = Violation(**dict(v, trace=tuple(v["trace"])))  # type: ignore[arg-type]
    return ExploreResult(**dict(doc, violation=violation))  # type: ignore[arg-type]


class Checkpoint:
    """The committed levels and counts of one search, in one directory.

    ``frontier_dir`` is created if missing.  If it holds a run with a
    different configuration the constructor raises ``ConfigError``:
    deep runs are precious, never clobber one.
    """

    def __init__(
        self, frontier_dir: str, init: MState, table, max_states: int,
        depth: Optional[int], reduce_sym: bool, reduce_por: bool,
        bundle=None,
    ) -> None:
        self.root = Path(frontier_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.meta_path = self.root / "meta.json"
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
        self.meta: Dict[str, object] = {"config": config, "levels": 0}
        if self.meta_path.exists():
            meta = json.loads(self.meta_path.read_text())
            if meta["config"] != config:
                raise ConfigError(
                    f"frontier dir {self.root} holds a different run "
                    f"({meta['config']}); use a fresh --frontier-dir"
                )
            self.meta = meta

    def _level_path(self, k: int) -> Path:
        return self.root / f"level_{k:05d}.pkl"

    def _write_meta(self) -> None:
        pool.write_atomic(
            self.meta_path, json.dumps(self.meta, indent=1).encode()
        )

    def result(self) -> Optional[ExploreResult]:
        """The recorded result of a finished run, else ``None``."""
        doc = self.meta.get("result")
        return None if doc is None else _from_json(doc)  # type: ignore[arg-type]

    def resume(self) -> Tuple[List[List[Entry]], Optional[ExploreResult]]:
        """Every committed level, in order, and the counts after the
        last one (``None`` before the first commit)."""
        levels = []
        for k in range(int(self.meta["levels"])):  # type: ignore[arg-type]
            entries: List[Entry] = []
            with self._level_path(k).open("rb") as f:
                while f.peek(1):
                    entries.extend(pickle.load(f))
            levels.append(entries)
        doc = self.meta.get("counts")
        return levels, None if doc is None else _from_json(doc)  # type: ignore[arg-type]

    def commit(self, level, counts: ExploreResult) -> None:
        """Record the next level's entries, then the counts that reach
        it."""
        k = int(self.meta["levels"])  # type: ignore[arg-type]
        entries = list(level)
        pool.write_atomic(self._level_path(k), b"".join(
            pickle.dumps(entries[i:i + CHUNK], protocol=pickle.HIGHEST_PROTOCOL)
            for i in range(0, len(entries), CHUNK)
        ))
        self.meta = dict(self.meta, levels=k + 1, counts=_to_json(counts))
        self._write_meta()

    def finish(self, result: ExploreResult) -> ExploreResult:
        """Record the search's result and drop the level files."""
        self.meta = {"config": self.meta["config"], "result": _to_json(result)}
        self._write_meta()
        for path in self.root.glob("level_*"):
            path.unlink()
        return result
