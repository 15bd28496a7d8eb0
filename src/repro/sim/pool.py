"""Process fan-out and the durable result store.

The paper's experiment grids, fuzz campaigns and the model checker's
disk frontier are all maps of independent items.  This module holds
the two pieces they share, and nothing about any one of them:

* :func:`pool_map` — fan ``(ident, payload)`` items over one
  terminate-able subprocess each (or run them inline), reporting every
  outcome, crash and timeout in one dict shape.
* :class:`ResultStore` — one JSON record per content key on disk.
  Callers look an item up before fanning out and record it when it
  finishes, under a key that covers :func:`code_version`, so a store
  written by other sources is never replayed.

:func:`write_atomic` is the one temp-file-and-rename writer behind
every store record, ``BENCH_*.json`` and ``FUZZ_*.json`` report, fuzz
failure artifact and disk-frontier file.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file (computed once per process).

    Part of every store key, so a simulator change — however small —
    invalidates every stored result; stale results can never leak
    across commits.
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


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` whole.

    The temp name carries the writer's pid: two processes writing one
    path each replace the final file whole and never clobber the
    other's half-written temp.
    """
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class ResultStore:
    """One JSON record per content key, in one directory.

    The directory is created (and validated) eagerly, so a bad path
    fails up front with a :class:`ConfigError` naming it.
    ``refresh=True`` ignores records from previous processes but still
    serves (and rewrites) records put through this object, so a
    refreshed run stays incremental within itself.
    """

    def __init__(self, root, refresh: bool = False) -> None:
        self.root = Path(root)
        self.refresh = refresh
        self._written: set = set()
        if self.root.exists() and not self.root.is_dir():
            raise ConfigError(f"{self.root} exists but is not a directory")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create directory {self.root}: {exc}"
            ) from exc

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        if self.refresh and key not in self._written:
            return None
        try:
            return json.loads(self._path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, record: Dict) -> None:
        write_atomic(self._path(key), json.dumps(record, sort_keys=True).encode())
        self._written.add(key)


#: Statuses :func:`pool_map` reports for an item whose ``fn`` returned
#: nothing.  They stay retryable: never record them in a store.
UNFINISHED = ("crashed", "timeout")


def _failure(status: str, error: str, error_type: str) -> Dict[str, object]:
    return {"status": status, "error": error, "error_type": error_type}


def _pool_worker(conn, fn, payload) -> None:
    """Subprocess entry: run ``fn(payload)``, ship the result back.

    If ``fn`` raises, the pipe closes without a result and the parent
    records the item as crashed (and retries it, if allowed).
    """
    try:
        conn.send(fn(payload))
    finally:
        conn.close()


def pool_map(
    pending: Sequence[Tuple[object, object]],
    fn: Callable[[object], Dict[str, object]],
    jobs: int,
    timeout: Optional[float] = None,
    retries: int = 0,
    on_done: Optional[
        Callable[[object, object, Dict[str, object], float, int], None]
    ] = None,
) -> None:
    """Call ``fn(payload)`` for every ``(ident, payload)`` item.

    ``jobs <= 0`` runs every item inline in this process, in order:
    ``timeout`` is not enforced and an exception ``fn`` does not catch
    propagates.  Otherwise each in-flight item gets its own subprocess
    (not a long-lived pool) so an overdue or wedged one can be
    ``terminate()``-d without poisoning the others; item runtimes are
    seconds-to-minutes, so the spawn cost is noise.  ``fn`` must then
    be a picklable module-level function (or a ``functools.partial``
    of one) returning a picklable dict.

    ``on_done(ident, payload, outcome, elapsed_s, attempts)`` fires once
    per item, in completion order, with ``elapsed_s`` in wall-clock
    seconds.  ``outcome`` is the dict ``fn`` returned, or — for a
    worker that died with no result, or ran past ``timeout`` wall-clock
    seconds and was terminated — a dict of the same shape whose
    ``status`` is in :data:`UNFINISHED` (``"crashed"`` with error type
    ``WorkerCrash``, ``"timeout"`` with ``WorkerTimeout``), with an
    ``error`` message.  Crashes and timeouts are retried up to
    ``retries`` extra attempts before being reported; ``fn`` results
    never are.
    """
    note_done = on_done or (lambda *a: None)
    if jobs <= 0:
        for ident, payload in pending:
            start = time.perf_counter()
            outcome = fn(payload)
            note_done(ident, payload, outcome, time.perf_counter() - start, 1)
        return

    ctx = multiprocessing.get_context()
    queue: List[Tuple[object, object, int]] = [
        (ident, payload, 1) for ident, payload in pending
    ]
    running: Dict[object, Tuple[object, object, object, float, int]] = {}

    def retry_or_report(ident, payload, attempt, elapsed, outcome) -> None:
        if attempt <= retries:
            queue.append((ident, payload, attempt + 1))
        else:
            note_done(ident, payload, outcome, elapsed, attempt)

    while queue or running:
        while queue and len(running) < jobs:
            ident, payload, attempt = queue.pop(0)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_pool_worker, args=(child_conn, fn, payload))
            proc.start()
            child_conn.close()
            running[proc] = (ident, payload, parent_conn, time.perf_counter(), attempt)

        now = time.perf_counter()
        settled = False
        for proc in list(running):
            ident, payload, conn, start, attempt = running[proc]
            if conn.poll() or not proc.is_alive():
                del running[proc]
                settled = True
                elapsed = time.perf_counter() - start
                try:
                    msg = conn.recv()
                except EOFError:  # the worker died without a result
                    msg = None
                proc.join()
                conn.close()
                if msg is not None:
                    note_done(ident, payload, msg, elapsed, attempt)
                else:
                    retry_or_report(ident, payload, attempt, elapsed, _failure(
                        "crashed",
                        f"worker exited with code {proc.exitcode} "
                        "and no result",
                        "WorkerCrash",
                    ))
            elif timeout is not None and now - start > timeout:
                del running[proc]
                settled = True
                proc.terminate()
                proc.join()
                conn.close()
                retry_or_report(ident, payload, attempt, now - start, _failure(
                    "timeout", f"exceeded {timeout:g}s wall clock",
                    "WorkerTimeout",
                ))
        if running and not settled:
            time.sleep(0.02)
