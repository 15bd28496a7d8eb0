"""Replayable failure artifacts.

When a fuzz cell fails, everything needed to reproduce it is dumped to
one JSON file: the cell (seed, machine shape, stress + fault configs),
the exact op list, the protocol-event trace tail (ring buffer), a
machine-state snapshot at death, and — after shrinking — the minimal
reproducing op list.  ``python -m repro fuzz --replay <file>`` rebuilds
the machine and replays the ops; tests and humans can do the same via
:func:`replay_artifact`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fuzz.stress import FuzzOp
from repro.protocol import directory as d

SCHEMA_VERSION = 1


def machine_snapshot(machine) -> Dict[str, object]:
    """JSON-serializable picture of coherence state at failure time."""
    layout = machine.layout
    cached_lines = set()
    nodes = []
    for node in machine.nodes:
        cached = {
            hex(la): {"state": st.name, }
            for la, st in node.hierarchy.cached_app_lines().items()
        }
        for la_hex in cached:
            cached_lines.add(int(la_hex, 16))
        # Versions come from the L2 lines themselves.
        for la_hex, rec in cached.items():
            line = node.hierarchy.l2.lookup(int(la_hex, 16))
            if line is not None:
                rec["version"] = line.version
                rec["dirty"] = line.dirty
        mshrs = [
            {
                "line": hex(la),
                "kind": e.kind.value,
                "protocol": e.protocol,
                "retries": e.retries,
                "pending_acks": e.pending_acks,
                "data_arrived": e.data_arrived,
                "request_upgrade": e.request_upgrade,
            }
            for la, e in node.hierarchy.mshrs.entries.items()
        ]
        cached_lines.update(node.hierarchy.mshrs.entries)
        mc = node.mc
        nodes.append(
            {
                "node": node.node_id,
                "cached": cached,
                "mshrs": mshrs,
                "queues": {
                    "lmi": len(mc.local_queue),
                    "ni_in": [len(q) for q in mc.ni_in],
                    "probe_replies": len(mc.probe_replies),
                },
                "memory_versions": {
                    hex(la): v for la, v in node.memory_versions.items()
                },
            }
        )
    directory = {}
    for la in sorted(cached_lines):
        home = layout.home_of(la)
        entry = machine.nodes[home].pmem.get(layout.dir_entry_addr(la), 0)
        directory[hex(la)] = {"home": home, "entry": d.describe(entry)}
    return {
        "cycle": machine.cycle,
        "nodes": nodes,
        "directory": directory,
        "sanitizer": machine.sanitizer.report() if machine.sanitizer else None,
    }


def write_artifact(
    path,
    cell,
    ops: List[FuzzOp],
    status: str,
    error: str,
    error_type: str,
    snapshot: Optional[Dict[str, object]],
    trace: Optional[List[dict]],
    shrunk_ops: Optional[List[FuzzOp]] = None,
) -> Path:
    """Atomically write one failure artifact; returns its path."""
    from repro.sim.pool import write_atomic

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": SCHEMA_VERSION,
        "cell": cell.to_dict(),
        "status": status,
        "error": error,
        "error_type": error_type,
        "ops": [op.to_dict() for op in ops],
        "shrunk_ops": (
            [op.to_dict() for op in shrunk_ops]
            if shrunk_ops is not None
            else None
        ),
        "snapshot": snapshot,
        "trace_tail": trace,
    }
    write_atomic(path, json.dumps(doc, indent=1, sort_keys=True).encode())
    return path


def load_artifact(path) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


def replay_artifact(
    path, use_shrunk: bool = True, protocol: Optional[str] = None
) -> Tuple[bool, Optional[BaseException], List[FuzzOp]]:
    """Re-run an artifact's ops on a fresh machine.

    Returns ``(reproduced, failure, ops_used)`` — ``reproduced`` means
    the replay failed in the same status class (violation vs deadlock)
    the artifact recorded.

    ``protocol``, when given, asserts which coherence bundle the
    artifact was fuzzed under; a mismatch is a ``ConfigError`` rather
    than a silent replay against the wrong handlers (the failure would
    be meaningless — or worse, spuriously "fixed").  ``None`` accepts
    whatever the artifact recorded.
    """
    from repro.common.errors import ConfigError
    from repro.fuzz.campaign import FuzzCell, execute, status_of

    doc = load_artifact(path)
    cell = FuzzCell.from_dict(doc["cell"])
    if protocol is not None and protocol != cell.protocol:
        raise ConfigError(
            f"artifact {path} was recorded under protocol "
            f"{cell.protocol!r} but replay requested {protocol!r}; "
            "pass the matching --protocol (or none, to use the "
            "recorded one)"
        )
    op_dicts = doc["ops"]
    if use_shrunk and doc.get("shrunk_ops"):
        op_dicts = doc["shrunk_ops"]
    ops = [FuzzOp.from_dict(o) for o in op_dicts]
    failure, _machine, _tracer = execute(cell, ops)
    reproduced = failure is not None and status_of(failure) == doc["status"]
    return reproduced, failure, ops
