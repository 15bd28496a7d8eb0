"""Closure compilation of protocol handler programs (threaded code).

Handler programs are tiny (6–40 instructions), loop-light, and executed
millions of times per run — on every L2 miss and every network message.
Interpreting them one :class:`~repro.protocol.isa.PInstr` at a time
(``semantics.step`` + a fresh ``Step`` record per instruction) is the
single largest avoidable cost in the simulator's busy path now that
idle cycles are skipped (see DESIGN.md, "Compiling the hot
interpreters").

This module compiles each handler once, on first use, into *threaded
code*: one specialized Python closure per instruction, chained by
direct closure references.  Register numbers, immediates, branch
targets, I-cache line indices and TRAP messages are constant-folded
into the closures at compile time; a trampoline loop in the consumer
(``while step is not None: step = step(state)``) drives execution.
Instructions are compiled in reverse program order so fallthrough and
forward-branch successors are direct closure references; backward
branch targets resolve through the step list on first traversal.

Two programs are compiled per handler, one per timed execution client:

``pp_entry``
    The embedded dual-issue protocol processor's timing walk
    (:mod:`repro.memctrl.ppengine`): dual-issue slot pairing, directory
    cache and protocol I-cache accesses, SDRAM stalls, uncached-op
    scheduling — bit-identical cycle accounting to
    ``PPEngine._execute``.  State is a :class:`PPState`.

``uop_entry``
    The SMTp shadow interpreter's µop feed
    (:mod:`repro.core.protocol_thread`): each closure resolves one
    instruction functionally and emits the same timing µop the
    interpreter would, updating the source's register file and
    protocol memory in the same order.  State is the
    ``ProtocolThreadSource`` itself.

The untimed client — :class:`~repro.protocol.semantics.FunctionalRunner`,
which runs handlers for unit tests and ``repro analyze`` — always
interprets through ``semantics.step``: the handler ISA has one
functional semantics, and both programs here evaluate ALU ops through
its ``ALU`` table.

**Bit-identity contract.**  For every observable — register files,
protocol-memory writes, the uncached-op stream and its ordering, stats
counters, µop field values, exception types *and messages* — the
compiled programs reproduce the reference interpreters
(``PPEngine._execute`` and ``ProtocolThreadSource._make_uop``, both
built on ``semantics.step``) exactly.  The interpreters stay in-tree
as the executable specification; setting ``REPRO_INTERP=1`` routes
both engines back to them (the same escape-hatch pattern as
``REPRO_DENSE_STEP``), and ``tests/test_compile.py`` diffs the two
modes: a property test on the µop feed and full-run differentials.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable, List, Optional, Set

from repro.common.errors import ProtocolError
from repro.isa.uop import UopKind, protocol_uop
from repro.protocol.isa import (
    ADDR,
    HDR,
    PINSTR_BYTES,
    Handler,
    PInstr,
    POp,
)
from repro.protocol.semantics import ALU, MASK64

#: Latency of POPC/CTZ without the special bit-manipulation ALU ops
#: (must match ``ProtocolThreadSource.SLOW_BITOP_LATENCY``).
SLOW_BITOP_LATENCY = 16

#: Ops whose uncached value is a register read (``semantics.step``).
_VALUE_OPS = (POp.SENDH, POp.SENDA, POp.PROBE)

# A compiled step: consumes the client state, returns the next step
# closure (or None to stop the trampoline).
StepFn = Callable[[Any], Any]

# A per-handler factory: (instr, index, fallthrough, branch_target) ->
# the specialized closure for that instruction.
_Factory = Callable[
    [PInstr, int, Optional[StepFn], Optional[StepFn]], StepFn
]


def interp_forced() -> bool:
    """True when ``REPRO_INTERP=1`` forces the reference interpreters."""
    return os.environ.get("REPRO_INTERP", "") == "1"


class CompiledHandler:
    """The two compiled programs of one placed handler."""

    __slots__ = ("name", "pc", "pp_entry", "uop_entry")

    def __init__(self, handler: Handler) -> None:
        self.name = handler.name
        # Programs fold the placed PC (I-cache lines, µop PCs); record
        # it so a later re-placement invalidates this compilation.
        self.pc = handler.pc
        self.pp_entry: StepFn = _compile(handler, _pp_factory(handler))
        self.uop_entry: StepFn = _compile(handler, _uop_factory(handler))


def compiled_for(handler: Handler) -> CompiledHandler:
    """Return (compiling on first use) ``handler``'s programs.

    The result is cached on the handler itself and invalidated if the
    handler has been re-placed (PC changed) since compilation.
    """
    cached = handler.compiled
    if cached is not None and cached.pc == handler.pc:
        return cached
    compiled = CompiledHandler(handler)
    handler.compiled = compiled
    return compiled


def compile_bundle(bundle) -> int:
    """Eagerly compile every handler of a registered protocol bundle.

    The compiler is protocol-agnostic — each bundle's ``build_table()``
    returns fresh :class:`Handler` objects, and :func:`compiled_for`
    caches on the handler itself, so variant bundles never collide in
    one process.  This helper exists to make that claim checkable (and
    to pre-warm a bundle before timing runs).  Returns the number of
    handlers compiled.
    """
    table = bundle.build_table()
    for handler in table.by_name.values():
        compiled_for(handler)
    return len(table.by_name)


# ----------------------------------------------------------------------
# Shared compilation plumbing.
# ----------------------------------------------------------------------

def _link(steps: List[Optional[StepFn]], target: int) -> StepFn:
    """A branch-target reference for a backward edge.

    The target closure does not exist yet during the reverse build, so
    it is resolved through the (by then fully populated) step list.
    The wrapper is transparent to the trampoline: one call executes
    exactly the target instruction.
    """
    def run(st: Any) -> Any:
        step = steps[target]
        assert step is not None
        return step(st)
    return run


def _compile(handler: Handler, factory: _Factory) -> StepFn:
    """Build ``handler``'s threaded-code program with ``factory`` and
    return its entry step."""
    instrs = handler.instrs
    n = len(instrs)
    steps: List[Optional[StepFn]] = [None] * n
    for i in range(n - 1, -1, -1):
        instr = instrs[i]
        nxt: Optional[StepFn] = None
        if instr.op is not POp.LDCTXT:
            nxt = steps[i + 1]
            assert nxt is not None, f"{handler.name}: fell off the end"
        tgt: Optional[StepFn] = None
        if instr.is_branch:
            tgt = (
                steps[instr.target]
                if instr.target > i
                else _link(steps, instr.target)
            )
            assert instr.target <= i or tgt is not None
        steps[i] = factory(instr, i, nxt, tgt)
    assert steps[0] is not None
    return steps[0]


def _trap_message(instr: PInstr, index: int) -> str:
    # Must match semantics.step verbatim.
    return f"protocol TRAP {instr.imm} at handler index {index}"


# ----------------------------------------------------------------------
# Program 1: the PP timing walk (PPEngine._execute).
# ----------------------------------------------------------------------

class PPState:
    """Per-dispatch mutable state threaded through the PP program.

    The per-engine fields (``regs`` … ``mcdiv``) are filled once at
    engine construction; the per-dispatch fields (``ctx`` … the stat
    counters) are reset by ``PPEngine`` before each trampoline run.
    Stats accumulate here and are flushed to ``NodeStats.protocol`` in
    one step after the run — same totals, fewer attribute chains.
    """

    __slots__ = (
        "regs", "pmem", "dcache", "picache", "sdram", "mc", "mcdiv",
        "wheel",
        "ctx", "now", "t", "slot", "seen",
        "phits", "pmiss", "dhits", "dmiss", "branches",
    )

    def __init__(self) -> None:
        self.regs: List[int] = []
        self.pmem: dict = {}
        self.dcache: Any = None
        self.picache: Any = None
        self.sdram = 0
        self.mc: Any = None
        self.mcdiv = 1
        self.wheel: Any = None
        self.ctx: Any = None
        self.now = 0
        self.t = 0
        self.slot = 0
        self.seen: Set[int] = set()
        self.phits = 0
        self.pmiss = 0
        self.dhits = 0
        self.dmiss = 0
        self.branches = 0


def _pp_factory(handler: Handler) -> _Factory:
    base_pc = handler.pc

    def factory(
        instr: PInstr,
        index: int,
        nxt: Optional[StepFn],
        tgt: Optional[StepFn],
    ) -> StepFn:
        op = instr.op
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        line = (base_pc + index * PINSTR_BYTES) >> 6
        line_addr = line << 6

        if op is POp.SWITCH or op is POp.LDCTXT:
            cont = None if op is POp.LDCTXT else nxt

            def p_seq(st: Any) -> Any:
                if line not in st.seen:
                    st.seen.add(line)
                    if st.picache.access(line_addr):
                        st.phits += 1
                    else:
                        st.pmiss += 1
                        st.t += st.sdram
                        st.slot = 0
                st.t += 1
                st.slot = 0
                return cont
            return p_seq

        if op is POp.LD or op is POp.ST:
            is_store = op is POp.ST

            def p_mem(st: Any) -> Any:
                if line not in st.seen:
                    st.seen.add(line)
                    if st.picache.access(line_addr):
                        st.phits += 1
                    else:
                        st.pmiss += 1
                        st.t += st.sdram
                        st.slot = 0
                r = st.regs
                addr = (r[rs1] + imm) & MASK64
                st.slot = 0
                if st.dcache.access(addr):
                    st.dhits += 1
                    st.t += 1
                else:
                    st.dmiss += 1
                    st.t += st.sdram
                if is_store:
                    st.pmem[addr] = r[rd]
                else:
                    # Mirrors _execute: loads write back unconditionally.
                    r[rd] = st.pmem.get(addr, 0)
                return nxt
            return p_mem

        if op is POp.BEQZ or op is POp.BNEZ or op is POp.J:
            # J behaves as an always-taken conditional.
            always = op is POp.J
            want_zero = op is POp.BEQZ

            def p_branch(st: Any) -> Any:
                if line not in st.seen:
                    st.seen.add(line)
                    if st.picache.access(line_addr):
                        st.phits += 1
                    else:
                        st.pmiss += 1
                        st.t += st.sdram
                        st.slot = 0
                st.branches += 1
                st.slot = 0
                if always or (st.regs[rs1] == 0) == want_zero:
                    st.t += 2
                    return tgt
                st.t += 1
                return nxt
            return p_branch

        if op is POp.TRAP:
            message = _trap_message(instr, index)

            def p_trap(st: Any) -> Any:
                if line not in st.seen:
                    st.seen.add(line)
                    if st.picache.access(line_addr):
                        st.phits += 1
                    else:
                        st.pmiss += 1
                        st.t += st.sdram
                        st.slot = 0
                raise ProtocolError(message)
            return p_trap

        if instr.is_uncached:
            reads_value = op in _VALUE_OPS

            def p_unc(st: Any) -> Any:
                if line not in st.seen:
                    st.seen.add(line)
                    if st.picache.access(line_addr):
                        st.phits += 1
                    else:
                        st.pmiss += 1
                        st.t += st.sdram
                        st.slot = 0
                value = st.regs[rs1] if reads_value else 0
                st.t += 1
                st.slot = 0
                now = st.now
                mc = st.mc
                ctx = st.ctx
                st.wheel.schedule_at(
                    max(now, now + st.t * st.mcdiv),
                    partial(mc.uncached_op, ctx, instr, value),
                )
                return nxt
            return p_unc

        # Plain ALU (LUI included): dual-issue slot pairing.
        if op is POp.LUI:
            lui_value = imm & MASK64

            def p_lui(st: Any) -> Any:
                if line not in st.seen:
                    st.seen.add(line)
                    if st.picache.access(line_addr):
                        st.phits += 1
                    else:
                        st.pmiss += 1
                        st.t += st.sdram
                        st.slot = 0
                if st.slot == 0:
                    st.t += 1
                    st.slot = 1
                else:
                    st.slot = 0
                if rd:
                    st.regs[rd] = lui_value
                return nxt
            return p_lui

        fn = ALU[op]
        is_bitop = op is POp.POPC or op is POp.CTZ
        b_imm = imm & MASK64

        def p_alu(st: Any) -> Any:
            if line not in st.seen:
                st.seen.add(line)
                if st.picache.access(line_addr):
                    st.phits += 1
                else:
                    st.pmiss += 1
                    st.t += st.sdram
                    st.slot = 0
            if st.slot == 0:
                st.t += 1
                st.slot = 1
            else:
                st.slot = 0
            if rd:
                r = st.regs
                if is_bitop:
                    r[rd] = fn(r[rs1], 0)
                elif rs2 is None:
                    r[rd] = fn(r[rs1], b_imm)
                else:
                    r[rd] = fn(r[rs1], r[rs2])
            return nxt
        return p_alu

    return factory


# ----------------------------------------------------------------------
# Program 2: the SMTp µop feed (ProtocolThreadSource._make_uop).
#
# State protocol: the ProtocolThreadSource itself — ``regs``, ``pmem``
# (dict), ``ctx``, ``port``, ``tid``, ``bitops``, ``index``,
# ``fetching``, ``_emit``.  Each closure resolves one instruction,
# stores the successor closure in ``st._emit`` and returns the µop.
# ----------------------------------------------------------------------

def _uop_factory(handler: Handler) -> _Factory:
    base_pc = handler.pc

    def factory(
        instr: PInstr,
        index: int,
        nxt: Optional[StepFn],
        tgt: Optional[StepFn],
    ) -> StepFn:
        op = instr.op
        rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
        pc = base_pc + index * PINSTR_BYTES
        next_index = index + 1
        srcs = tuple(instr.reads())

        if op is POp.SWITCH:
            def u_switch(st: Any) -> Any:
                st.index = next_index
                st._emit = nxt
                return protocol_uop(
                    UopKind.SWITCH, st.tid, pc, (), HDR,
                    0, None, False, 0, 1, None, st.ctx,
                )
            return u_switch

        if op is POp.LDCTXT:
            def u_ldctxt(st: Any) -> Any:
                st.fetching = False
                st._emit = None
                uop = protocol_uop(
                    UopKind.LDCTXT, st.tid, pc, (), ADDR,
                    0, None, False, 0, 1, None, st.ctx,
                )
                st.port.on_fetch_complete()
                return uop
            return u_ldctxt

        if op is POp.ST:
            def u_st(st: Any) -> Any:
                r = st.regs
                addr = (r[rs1] + imm) & MASK64
                value = r[rd]
                st.pmem[addr] = value
                st.index = next_index
                st._emit = nxt
                return protocol_uop(
                    UopKind.STORE, st.tid, pc, srcs, None,
                    addr, value, False, 0, 1, None, st.ctx,
                )
            return u_st

        if op is POp.LD:
            def u_ld(st: Any) -> Any:
                r = st.regs
                addr = (r[rs1] + imm) & MASK64
                uop = protocol_uop(
                    UopKind.LOAD, st.tid, pc, srcs, rd,
                    addr, None, False, 0, 1, None, st.ctx,
                )
                if rd:
                    r[rd] = st.pmem.get(addr, 0)
                st.index = next_index
                st._emit = nxt
                return uop
            return u_ld

        if op is POp.BEQZ or op is POp.BNEZ or op is POp.J:
            always = op is POp.J
            want_zero = op is POp.BEQZ
            target_index = instr.target
            taken_pc = base_pc + target_index * PINSTR_BYTES
            fall_pc = base_pc + next_index * PINSTR_BYTES

            def u_branch(st: Any) -> Any:
                if always or (st.regs[rs1] == 0) == want_zero:
                    st.index = target_index
                    st._emit = tgt
                    return protocol_uop(
                        UopKind.BRANCH, st.tid, pc, srcs, None,
                        0, None, True, taken_pc, 1, None, st.ctx,
                    )
                st.index = next_index
                st._emit = nxt
                return protocol_uop(
                    UopKind.BRANCH, st.tid, pc, srcs, None,
                    0, None, False, fall_pc, 1, None, st.ctx,
                )
            return u_branch

        if op is POp.TRAP:
            message = _trap_message(instr, index)

            def u_trap(st: Any) -> Any:
                raise ProtocolError(message)
            return u_trap

        if instr.is_uncached:
            reads_value = op in _VALUE_OPS

            def u_unc(st: Any) -> Any:
                value = st.regs[rs1] if reads_value else 0
                st.index = next_index
                st._emit = nxt
                return protocol_uop(
                    UopKind.UNCACHED, st.tid, pc, srcs, None,
                    0, value, False, 0, 1, instr, st.ctx,
                )
            return u_unc

        # Plain ALU / LUI.
        dest = rd if rd != 0 else None
        if op is POp.LUI:
            lui_value = imm & MASK64

            def u_lui(st: Any) -> Any:
                st.index = next_index
                st._emit = nxt
                uop = protocol_uop(
                    UopKind.ALU, st.tid, pc, srcs, dest,
                    0, None, False, 0, 1, None, st.ctx,
                )
                if dest is not None:
                    st.regs[dest] = lui_value
                return uop
            return u_lui

        fn = ALU[op]
        is_bitop = op is POp.POPC or op is POp.CTZ
        b_imm = imm & MASK64

        def u_alu(st: Any) -> Any:
            r = st.regs
            if is_bitop:
                value = fn(r[rs1], 0)
                latency = 1 if st.bitops else SLOW_BITOP_LATENCY
            else:
                value = fn(r[rs1], b_imm if rs2 is None else r[rs2])
                latency = 1
            st.index = next_index
            st._emit = nxt
            uop = protocol_uop(
                UopKind.ALU, st.tid, pc, srcs, dest,
                0, None, False, 0, latency, None, st.ctx,
            )
            if dest is not None:
                r[dest] = value
            return uop
        return u_alu

    return factory
