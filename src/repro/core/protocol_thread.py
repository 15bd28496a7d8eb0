"""The SMTp mechanism: the protocol-thread context (paper §2.1, §2.3).

Two cooperating pieces:

* :class:`SMTpPort` — the engine adapter the memory controller talks
  to.  It accepts handler dispatches (capacity one, so the dispatch
  unit naturally blocks while a context is pending), implements the
  PPCV handshake, and realizes **Look-Ahead Scheduling**: with LAS the
  next handler's PC is handed to fetch as soon as the previous
  handler's fetch finishes; without LAS only after its LDCTXT
  graduates.

* :class:`ProtocolThreadSource` — the fetch-side shadow interpreter.
  It resolves each handler instruction *functionally at fetch time*
  (registers, protocol-memory loads/stores, branch outcomes are all
  deterministic for the single protocol thread), then emits timing
  µops for the pipeline.  Uncached operations keep their operand
  values on the µop and take effect only when the pipeline graduates
  them — preserving the paper's non-speculative send/probe semantics.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.uop import Uop, UopKind
from repro.memctrl.dispatch import HandlerContext
from repro.protocol import compile as pcompile
from repro.protocol import semantics
from repro.protocol.handlers import boot_registers
from repro.protocol.isa import ADDR, HDR, PInstr, POp


class SMTpPort:
    """Engine interface between the dispatch unit and the pipeline."""

    def __init__(self, source: "ProtocolThreadSource", las: bool) -> None:
        self.source = source
        self.las = las
        self.pending: Optional[HandlerContext] = None
        self.dispatched_count = 0
        self.started_count = 0
        self.committed_count = 0
        source.port = self

    # -- MC-facing engine interface ------------------------------------
    def can_accept(self) -> bool:
        return self.pending is None

    def ready_cycle(self) -> Optional[int]:
        """Activity contract: 0 when accepting now; None while a
        context is pending — acceptance is then unblocked by pipeline
        work (the handler graduating), not by the passage of time."""
        return None if self.pending is not None else 0

    def idle(self) -> bool:
        """No handler pending and no effects left in the pipeline.

        The final handler's SWITCH/LDCTXT legitimately stall forever
        when no further traffic arrives (paper §2.1), so idleness is
        judged by the core's protocol-thread window contents.
        """
        if self.pending is not None:
            return False
        core = self.source.node.core
        return core is None or core.protocol_quiescent()

    def dispatch(self, ctx: HandlerContext) -> None:
        ctx.index = self.dispatched_count
        self.dispatched_count += 1
        self.pending = ctx
        self.try_start()
        # A new dispatch can satisfy a stalled SWITCH, turns the port
        # busy and feeds the protocol thread's fetch: wake the host
        # core with those verdicts reopened.  (try_start's other
        # callers run inside the core's own retire and fetch, which
        # reopen the protocol thread's fetch verdict themselves.)
        core = self.source.node.core
        if core is not None:
            core.wake_handler()

    # -- sequencing -------------------------------------------------------
    def try_start(self) -> None:
        """Start fetching the pending handler if the rules allow."""
        if self.pending is None or self.source.fetching:
            return
        # At most one look-ahead handler beyond the executing one.
        if self.started_count - self.committed_count >= (2 if self.las else 1):
            return
        if not self.las and self.started_count != self.committed_count:
            return
        # Acceptance is about to flip (ready_cycle None -> 0): settle
        # the host controller's slept window under the old readiness
        # and put it back in the machine's active set — with a request
        # queued it dispatches on the next MC-clock edge, exactly as a
        # densely stepped controller would.  This is the only place
        # ``pending`` clears, so every port-side acceptance edge lands
        # on an mc_wake() settle boundary.
        mc = self.source.node.mc
        if mc._sleep_from:
            mc.mc_wake()
        ctx = self.pending
        self.pending = None
        self.started_count += 1
        self.source.start(ctx)

    def switch_satisfied(self, ctx: HandlerContext) -> bool:
        """Handler ``ctx`` may graduate its SWITCH/LDCTXT once the next
        request has been handed out by the dispatch unit."""
        return self.dispatched_count >= ctx.index + 2

    def handler_committed(self) -> None:
        self.committed_count += 1
        self.try_start()

    def on_fetch_complete(self) -> None:
        if self.las:
            self.try_start()


class ProtocolThreadSource:
    """Shadow interpreter feeding the protocol thread context."""

    #: Latency of POPC/CTZ when the special bit-manipulation ALU ops
    #: are absent (§2.1 ablation): a shift-and-test software loop.
    SLOW_BITOP_LATENCY = pcompile.SLOW_BITOP_LATENCY

    def __init__(self, node) -> None:
        self.node = node
        self.layout = node.layout
        self.regs = boot_registers(node.layout, node.node_id)
        self.pmem = node.pmem
        self.port: Optional[SMTpPort] = None
        self.bitops = node.mp.proc.protocol_bitops
        self.tid = node.mp.proc.app_threads  # protocol context id
        self.ctx: Optional[HandlerContext] = None
        self.index = 0
        self.fetching = False
        self._buffer: List[Uop] = []
        self.done = False  # the protocol thread never finishes
        # Compiled µop feed (bit-identical to _make_uop); _emit holds
        # the next instruction's emit closure while fetching.
        self._use_compiled = not pcompile.interp_forced()
        self._emit = None

    # -- frontend source interface ------------------------------------------
    def peek_available(self) -> bool:
        return bool(self._buffer) or self.fetching

    def push_back(self, uop: Uop) -> None:
        self._buffer.insert(0, uop)

    def next_uop(self) -> Optional[Uop]:
        if self._buffer:
            return self._buffer.pop(0)
        if not self.fetching:
            return None
        emit = self._emit
        if emit is not None:
            return emit(self)
        return self._make_uop()

    def next_ctx_available(self, ctx: HandlerContext) -> bool:
        return self.port.switch_satisfied(ctx)

    def handler_committed(self, ctx: HandlerContext) -> None:
        self.port.handler_committed()

    # -- handler sequencing ----------------------------------------------
    def start(self, ctx: HandlerContext) -> None:
        self.ctx = ctx
        self.index = 0
        self.fetching = True
        self.regs[HDR] = ctx.header
        self.regs[ADDR] = ctx.msg.addr
        self._emit = (
            pcompile.compiled_for(ctx.handler).uop_entry
            if self._use_compiled
            else None
        )

    # -- shadow execution -------------------------------------------------
    def _make_uop(self) -> Optional[Uop]:
        ctx = self.ctx
        instr: PInstr = ctx.handler.instrs[self.index]
        pc = ctx.handler.pc_of(self.index)
        tid = self.node.mp.proc.app_threads  # protocol context id
        op = instr.op

        if op is POp.SWITCH:
            self.index += 1
            return Uop(
                UopKind.SWITCH, tid, pc=pc, dest=HDR, ctx=ctx, protocol=True
            )
        if op is POp.LDCTXT:
            self.fetching = False
            uop = Uop(
                UopKind.LDCTXT, tid, pc=pc, dest=ADDR, ctx=ctx, protocol=True
            )
            self.port.on_fetch_complete()
            return uop

        result = semantics.step(
            instr, self.index, self.regs, lambda a: self.pmem.get(a, 0)
        )
        srcs = tuple(instr.reads())
        if result.is_store:
            self.pmem[result.mem_addr] = result.value
            uop = Uop(
                UopKind.STORE, tid, pc=pc, srcs=srcs, addr=result.mem_addr,
                value=result.value, ctx=ctx, protocol=True,
            )
        elif op is POp.LD:
            uop = Uop(
                UopKind.LOAD, tid, pc=pc, srcs=srcs, dest=instr.rd,
                addr=result.mem_addr, ctx=ctx, protocol=True,
            )
        elif instr.is_branch:
            uop = Uop(
                UopKind.BRANCH, tid, pc=pc, srcs=srcs,
                taken=result.taken,
                target_pc=ctx.handler.pc_of(result.next_index),
                ctx=ctx, protocol=True,
            )
        elif result.uncached:
            uop = Uop(
                UopKind.UNCACHED, tid, pc=pc, srcs=srcs,
                value=result.value, pinstr=instr, ctx=ctx, protocol=True,
            )
        else:
            latency = 1
            if op in (POp.POPC, POp.CTZ) and not self.bitops:
                latency = self.SLOW_BITOP_LATENCY
            dest = result.dest if result.dest not in (None, 0) else None
            uop = Uop(
                UopKind.ALU, tid, pc=pc, srcs=srcs, dest=dest,
                latency=latency, ctx=ctx, protocol=True,
            )
            if dest is not None:
                self.regs[dest] = result.value
        if result.dest not in (None, 0) and op is POp.LD:
            self.regs[result.dest] = result.value
        self.index = result.next_index
        return uop
