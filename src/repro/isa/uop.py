"""The dynamic instruction (µop) record flowing through the pipeline.

Both instruction sources produce these:

* application thread programs (:mod:`repro.apps`) — trace-driven, so
  branch outcomes, memory addresses and store values are filled in at
  creation,
* the protocol-thread shadow interpreter
  (:mod:`repro.core.protocol_thread`) — handler instructions resolved
  against live directory state at fetch time.

The pipeline treats µops purely as timing tokens afterwards: renaming,
issue, cache access, completion, commit.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple


class UopKind(enum.IntEnum):
    """µop kinds.

    An ``IntEnum`` so the pipeline's per-stage dict lookups and
    frozenset membership tests hash at C speed (plain ``Enum`` hashes
    through a Python-level ``__hash__``, which profiling showed on the
    issue/commit hot path).  ``__str__``/``__format__`` are pinned to
    the ``Enum`` forms so messages keep reading ``UopKind.ALU``.
    """

    __str__ = enum.Enum.__str__
    __format__ = enum.Enum.__format__

    ALU = enum.auto()  # single-cycle integer op
    MUL = enum.auto()
    DIV = enum.auto()
    FALU = enum.auto()  # pipelined FP op
    FDIV = enum.auto()
    NOP = enum.auto()
    LOAD = enum.auto()
    STORE = enum.auto()
    PREFETCH = enum.auto()
    ATOMIC = enum.auto()  # tas / fai / swap: non-speculative RMW
    BRANCH = enum.auto()
    CALL = enum.auto()
    RETURN = enum.auto()
    UNCACHED = enum.auto()  # protocol SENDH/SENDA/PROBE/COMPLETE/...
    SWITCH = enum.auto()  # protocol: load next request header
    LDCTXT = enum.auto()  # protocol: load next request address
    SYNTH = enum.auto()  # injected wrong-path filler


MEMORY_KINDS = frozenset(
    {UopKind.LOAD, UopKind.STORE, UopKind.PREFETCH, UopKind.ATOMIC}
)
BRANCH_KINDS = frozenset({UopKind.BRANCH, UopKind.CALL, UopKind.RETURN})
COMMIT_STAGE_KINDS = frozenset(
    {UopKind.UNCACHED, UopKind.SWITCH, UopKind.LDCTXT}
)

#: (is_memory, is_branch, commit_stage, is_fp) per kind, indexed by the
#: kind's integer value — one list index replaces four frozenset tests
#: on every µop construction.
_KIND_FLAGS: List[Tuple[bool, bool, bool, bool]] = [
    (False, False, False, False)
] * (max(UopKind) + 1)
for _k in UopKind:
    _KIND_FLAGS[_k] = (
        _k in MEMORY_KINDS,
        _k in BRANCH_KINDS,
        _k in COMMIT_STAGE_KINDS,
        _k is UopKind.FALU or _k is UopKind.FDIV,
    )

#: Logical register namespaces: 0-31 integer, 32-63 floating point.
FP_BASE = 32
N_LOGICAL = 64


class Uop:
    __slots__ = (
        # static (from the source)
        "kind",
        "thread",
        "pc",
        "srcs",
        "dest",
        "taken",
        "target_pc",
        "addr",
        "value",
        "atomic_op",
        "operand",
        "exclusive",
        "latency",
        "pinstr",
        "ctx",
        "on_value",
        "protocol",
        "spin",
        # kind predicates, precomputed (issue/commit hot path)
        "is_memory",
        "is_branch",
        "commit_stage",
        "is_fp",
        # dynamic (pipeline state)
        "seq",
        "iq_pos",
        "psrcs",
        "n_wait",
        "pdest",
        "pdest_old",
        "checkpoint",
        "mem_seq",
        "mispredicted",
        "issued",
        "completed",
        "squashed",
        "in_lsq",
        "result_value",
    )

    def __init__(
        self,
        kind: UopKind,
        thread: int,
        pc: int = 0,
        srcs: Tuple[int, ...] = (),
        dest: Optional[int] = None,
        taken: bool = False,
        target_pc: int = 0,
        addr: int = 0,
        value: Optional[int] = None,
        atomic_op: Optional[str] = None,
        operand: int = 0,
        exclusive: bool = False,
        latency: int = 1,
        pinstr=None,
        ctx=None,
        on_value=None,
        protocol: bool = False,
    ) -> None:
        self.kind = kind
        self.thread = thread
        self.pc = pc
        self.srcs = srcs
        self.dest = dest
        self.taken = taken
        self.target_pc = target_pc
        self.addr = addr
        self.value = value
        self.atomic_op = atomic_op
        self.operand = operand
        self.exclusive = exclusive
        self.latency = latency
        self.pinstr = pinstr
        self.ctx = ctx
        #: Callback fed the load/atomic result (spin & lock feedback).
        self.on_value = on_value
        self.protocol = protocol
        #: Emitted by a spin-synchronization loop (spin_until /
        #: SpinLock.acquire): its retirement count is timing-dependent
        #: and excluded from cross-protocol differential comparisons.
        self.spin = False

        # ``kind`` never changes after construction, so the class
        # predicates are paid once here instead of on every pipeline
        # stage's query.
        (
            self.is_memory,
            self.is_branch,
            self.commit_stage,
            self.is_fp,
        ) = _KIND_FLAGS[kind]

        self.seq = 0
        #: IQ admission order (the compiled issue path's heap key; the
        #: interpreted path's list order carries the same information).
        self.iq_pos = 0
        self.psrcs: Tuple[int, ...] = ()
        #: Unready physical sources (maintained by the rename unit's
        #: wakeup lists); the issue stage tests this instead of
        #: re-scanning ``psrcs`` every cycle.
        self.n_wait = 0
        self.pdest = -1
        self.pdest_old = -1
        self.checkpoint = None
        self.mem_seq = -1
        self.mispredicted = False
        self.issued = False
        self.completed = False
        self.squashed = False
        self.in_lsq = False
        self.result_value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Uop({self.kind.name}, t{self.thread}, pc={self.pc:#x}, "
            f"seq={self.seq})"
        )

    def clone(self) -> "Uop":
        """A fresh µop with this one's static fields and pristine
        pipeline state — the decoded-µop cache's template stamp.

        Equivalent to re-running ``__init__`` with the same arguments,
        but skips argument binding and the flags lookup; callers patch
        the per-instance fields (``addr``, ``value``, ``taken``, …)
        afterwards.
        """
        u = Uop.__new__(Uop)
        u.kind = self.kind
        u.thread = self.thread
        u.pc = self.pc
        u.srcs = self.srcs
        u.dest = self.dest
        u.taken = self.taken
        u.target_pc = self.target_pc
        u.addr = self.addr
        u.value = self.value
        u.atomic_op = self.atomic_op
        u.operand = self.operand
        u.exclusive = self.exclusive
        u.latency = self.latency
        u.pinstr = self.pinstr
        u.ctx = self.ctx
        u.on_value = self.on_value
        u.protocol = self.protocol
        u.spin = self.spin
        u.is_memory = self.is_memory
        u.is_branch = self.is_branch
        u.commit_stage = self.commit_stage
        u.is_fp = self.is_fp
        u.seq = 0
        u.iq_pos = 0
        u.psrcs = ()
        u.n_wait = 0
        u.pdest = -1
        u.pdest_old = -1
        u.checkpoint = None
        u.mem_seq = -1
        u.mispredicted = False
        u.issued = False
        u.completed = False
        u.squashed = False
        u.in_lsq = False
        u.result_value = 0
        return u


def protocol_uop(
    kind: UopKind,
    thread: int,
    pc: int,
    srcs: Tuple[int, ...],
    dest: Optional[int],
    addr: int,
    value: Optional[int],
    taken: bool,
    target_pc: int,
    latency: int,
    pinstr: object,
    ctx: object,
) -> Uop:
    """Positional fast constructor for protocol-thread µops.

    Field-for-field identical to ``Uop(kind, thread, pc=..., ...,
    protocol=True)``; the compiled µop feed
    (:mod:`repro.protocol.compile`) calls this once per emitted µop, so
    it avoids keyword-argument binding on the hot path.
    """
    u = Uop.__new__(Uop)
    u.kind = kind
    u.thread = thread
    u.pc = pc
    u.srcs = srcs
    u.dest = dest
    u.taken = taken
    u.target_pc = target_pc
    u.addr = addr
    u.value = value
    u.atomic_op = None
    u.operand = 0
    u.exclusive = False
    u.latency = latency
    u.pinstr = pinstr
    u.ctx = ctx
    u.on_value = None
    u.protocol = True
    u.spin = False
    (
        u.is_memory,
        u.is_branch,
        u.commit_stage,
        u.is_fp,
    ) = _KIND_FLAGS[kind]
    u.seq = 0
    u.iq_pos = 0
    u.psrcs = ()
    u.n_wait = 0
    u.pdest = -1
    u.pdest_old = -1
    u.checkpoint = None
    u.mem_seq = -1
    u.mispredicted = False
    u.issued = False
    u.completed = False
    u.squashed = False
    u.in_lsq = False
    u.result_value = 0
    return u
