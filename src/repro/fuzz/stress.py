"""Seeded stress-traffic generation and deterministic replay.

Two halves, deliberately decoupled:

* :func:`generate_ops` turns ``(seed, StressConfig, n_nodes)`` into a
  flat list of :class:`FuzzOp` records — pure function of its inputs,
  no machine state involved.
* :func:`run_ops` plays any op list against a machine: issue in order,
  cap outstanding misses, retry blocked issues, run until drained on
  the machine's event-driven scheduler (:meth:`Machine.drive`).

Because the op list is data, a failing run's exact traffic can be
serialized into an artifact, replayed bit-for-bit, and *shrunk* — the
minimizer just replays sublists (see :mod:`repro.fuzz.shrink`).

Sharing patterns model the classic DSM access shapes:

``uniform``
    every node hits every line (the PR-0 randomized test's model),
``producer_consumer``
    one writer per line, everyone else reads,
``migratory``
    bursts of read-modify-write from one node at a time, rotating,
``home``
    nodes mostly touch lines homed at other nodes (3-hop heavy).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Dict, List

from repro.common.errors import ConfigError, DeadlockError

SHARING_PATTERNS = ("uniform", "producer_consumer", "migratory", "home")

ATOMIC_OPS = ("tas", "fai", "swap")

LINE_BYTES = 128
WORD_STRIDE = 8


@dataclass(frozen=True)
class StressConfig:
    """Traffic shape for one fuzz cell."""

    n_ops: int = 300
    n_lines: int = 4  # per node (homed lines)
    hot_fraction: float = 0.7
    load_w: float = 0.45
    store_w: float = 0.40
    atomic_w: float = 0.10
    prefetch_w: float = 0.05
    sharing: str = "uniform"
    max_outstanding: int = 8
    migratory_burst: int = 16

    def __post_init__(self) -> None:
        if self.sharing not in SHARING_PATTERNS:
            raise ConfigError(
                f"unknown sharing pattern {self.sharing!r}; "
                f"pick from {SHARING_PATTERNS}"
            )
        if self.n_ops <= 0 or self.n_lines <= 0:
            raise ConfigError("n_ops and n_lines must be positive")

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "StressConfig":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names})


@dataclass(frozen=True)
class FuzzOp:
    """One generated memory operation.

    ``kind`` is load/store/atomic/prefetch; ``arg`` is the store value,
    atomic operand, or prefetch-exclusive flag; ``sub`` names the
    atomic op ('tas'/'fai'/'swap').
    """

    node: int
    kind: str
    addr: int
    arg: int = 0
    sub: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "node": self.node, "kind": self.kind, "addr": self.addr,
            "arg": self.arg, "sub": self.sub,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FuzzOp":
        return cls(
            node=int(d["node"]), kind=str(d["kind"]), addr=int(d["addr"]),
            arg=int(d.get("arg", 0)), sub=str(d.get("sub", "")),
        )


def line_pool(n_nodes: int, n_lines: int) -> List[int]:
    """Application line addresses, ``n_lines`` homed at each node."""
    return [
        (node << 22) | (i * LINE_BYTES)
        for node in range(n_nodes)
        for i in range(1, n_lines + 1)
    ]


def generate_ops(seed: int, cfg: StressConfig, n_nodes: int) -> List[FuzzOp]:
    """Deterministic op list from (seed, config, node count)."""
    rng = random.Random(seed)
    lines = line_pool(n_nodes, cfg.n_lines)
    hot = lines[: max(1, len(lines) // 3)]
    total_w = cfg.load_w + cfg.store_w + cfg.atomic_w + cfg.prefetch_w
    if total_w <= 0:
        raise ConfigError("op-mix weights must sum to a positive value")
    load_cut = cfg.load_w / total_w
    store_cut = load_cut + cfg.store_w / total_w
    atomic_cut = store_cut + cfg.atomic_w / total_w

    def pick_line() -> int:
        pool = hot if rng.random() < cfg.hot_fraction else lines
        return rng.choice(pool)

    ops: List[FuzzOp] = []
    for i in range(cfg.n_ops):
        roll = rng.random()
        if roll < load_cut:
            kind = "load"
        elif roll < store_cut:
            kind = "store"
        elif roll < atomic_cut:
            kind = "atomic"
        else:
            kind = "prefetch"

        line = pick_line()
        if cfg.sharing == "producer_consumer" and kind in ("store", "atomic"):
            # The line's writer is fixed by its position in the pool.
            node = lines.index(line) % n_nodes
        elif cfg.sharing == "migratory":
            node = (i // max(1, cfg.migratory_burst)) % n_nodes
        elif cfg.sharing == "home":
            # Mostly remote lines: 3-hop transactions dominate.
            node = rng.randrange(n_nodes)
            home = line >> 22
            if home == node and rng.random() < 0.8:
                node = (node + 1 + rng.randrange(max(1, n_nodes - 1))) % n_nodes
        else:
            node = rng.randrange(n_nodes)

        if kind == "atomic":
            # Atomics target the line's base word, like lock words do.
            ops.append(FuzzOp(node, "atomic", line, arg=1,
                              sub=rng.choice(ATOMIC_OPS)))
        else:
            addr = line + rng.randrange(0, LINE_BYTES, WORD_STRIDE)
            if kind == "store":
                ops.append(FuzzOp(node, "store", addr, arg=rng.randrange(1000)))
            elif kind == "prefetch":
                ops.append(FuzzOp(node, "prefetch", addr,
                                  arg=int(rng.random() < 0.5)))
            else:
                ops.append(FuzzOp(node, "load", addr))
    return ops


class _OpTraffic:
    """:meth:`Machine.drive`'s driver for one op list: issue in order,
    at most ``max_outstanding`` misses in flight, a blocked issue (no
    MSHR) retried on the next cycle without reordering."""

    def __init__(self, machine, ops: List[FuzzOp], max_outstanding: int):
        self.hierarchies = [node.hierarchy for node in machine.nodes]
        self.ops = ops
        self.max_outstanding = max_outstanding
        self.index = 0
        self.issued = 0
        self.outstanding = 0

    def _complete(self, _value: int) -> None:
        self.outstanding -= 1

    def issue(self) -> bool:
        """Issue what fits; True when parked (all issued, or the cap of
        misses in flight), False when a blocked op must be retried."""
        ops = self.ops
        cb = self._complete
        while self.index < len(ops) and self.outstanding < self.max_outstanding:
            op = ops[self.index]
            h = self.hierarchies[op.node]
            if op.kind == "load":
                r = h.load(op.addr, False, cb)
            elif op.kind == "store":
                r = h.store(op.addr, False, op.arg, cb)
            elif op.kind == "atomic":
                r = h.atomic(op.addr, op.sub, op.arg, cb)
            elif op.kind == "prefetch":
                h.prefetch(op.addr, exclusive=bool(op.arg))
                self.index += 1
                continue
            else:
                raise ConfigError(f"unknown fuzz op kind {op.kind!r}")
            if r[0] == "blocked":
                return False  # retry the same op on the next cycle
            self.index += 1
            self.issued += 1
            if r[0] == "miss":
                self.outstanding += 1
        return True

    def drained(self) -> bool:
        return self.index >= len(self.ops) and self.outstanding == 0


def run_ops(
    machine,
    ops: List[FuzzOp],
    max_outstanding: int = 8,
    max_cycles: int = 3_000_000,
) -> Dict[str, int]:
    """Replay ``ops`` in order against ``machine`` and drain it.

    Issues keep ``max_outstanding`` misses in flight; a blocked issue
    (no MSHR) is retried on a later cycle without reordering.  Raises
    :class:`DeadlockError` if the traffic does not complete within
    ``max_cycles``; any sanitizer violation propagates from
    inside the machine's step.
    """
    traffic = _OpTraffic(machine, ops, max_outstanding)
    if not machine.drive(traffic, max_cycles):
        raise DeadlockError(
            f"fuzz traffic incomplete after {max_cycles} cycles: "
            f"{traffic.outstanding} outstanding, "
            f"{len(ops) - traffic.index} unissued\n"
            + machine._deadlock_report()
        )
    return {"issued": traffic.issued, "cycles": machine.cycle}
