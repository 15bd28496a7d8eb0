"""The per-node memory controller.

In every machine model the controller owns the Local Miss Interface,
the Network Interface queues, the SDRAM, and the handler dispatch
unit.  What differs per model (Table 4) is *where handlers execute*:

* ``Base`` / ``Int*``: an embedded dual-issue protocol processor
  (:class:`repro.memctrl.ppengine.PPEngine`) with a directory data
  cache — plugged in as ``self.engine``.
* ``SMTp``: the protocol thread context of the main pipeline — the
  core installs an engine adapter exposing the same interface.

The engine interface is duck-typed::

    engine.can_accept() -> bool      # ready for a new handler?
    engine.dispatch(ctx) -> None     # begin executing ctx.handler

and during execution the engine calls back into
:meth:`MemoryController.uncached_op` for every SENDH/SENDA/PROBE/
COMPLETE/RESEND/MEMWR the handler graduates.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Protocol

from repro.caches.hierarchy import CacheHierarchy
from repro.caches.mshr import MSHREntry
from repro.common.errors import ProtocolError
from repro.common.events import EventWheel
from repro.common.params import MachineParams
from repro.common.queues import BoundedQueue
from repro.common.stats import NodeStats
from repro.memctrl.dispatch import HandlerContext, handler_name_for, incoming_header
from repro.memctrl.sdram import SDRAM
from repro.network.messages import (
    EXPECTS_MEMORY_DATA,
    MTYPE_BY_VALUE,
    PROBE_KIND,
    REPLY_TYPES,
    Message,
    MsgType,
    request_type,
)
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import (
    PROBE_DISPATCH,
    header_acks,
    header_peer,
    header_type,
)
from repro.protocol.isa import HandlerTable, PInstr, POp, RESEND_AS_GETX

#: Fixed latencies (processor cycles).
LOCAL_REPLY_LATENCY = 4  # hardware path MC -> MSHR/refill
LOCAL_QUEUE_LATENCY = 4  # send-to-self re-enqueue
RETRY_BASE = 100  # NACK retry backoff
RETRY_STEP = 50


class ProtocolEngine(Protocol):
    """What the controller needs from a handler-execution engine.

    Implemented by :class:`repro.memctrl.ppengine.PPEngine` (embedded
    protocol processor) and the SMTp port adapter the core installs;
    see the module docstring for the calling convention.
    """

    def can_accept(self) -> bool: ...

    def dispatch(self, ctx: HandlerContext) -> None: ...

    def ready_cycle(self) -> Optional[int]: ...


class MemoryController:
    def __init__(
        self,
        node_id: int,
        mp: MachineParams,
        wheel: EventWheel,
        hierarchy: CacheHierarchy,
        layout: DirectoryLayout,
        handler_table: HandlerTable,
        stats: NodeStats,
        memory_versions: Dict[int, int],
        send_to_network: Callable[[Message], None],
        bundle=None,
    ) -> None:
        self.node_id = node_id
        self.mp = mp
        self.wheel = wheel
        self.hierarchy = hierarchy
        self.layout = layout
        self.handlers = handler_table
        #: The protocol bundle whose dispatch tables route messages;
        #: None (memory-only harnesses) falls back to the default
        #: protocol's module-level tables.
        self.bundle = bundle
        self.stats = stats
        self.memory_versions = memory_versions
        self.send_to_network = send_to_network

        self.sdram = SDRAM(mp, stats)
        self.local_queue: BoundedQueue[Message] = BoundedQueue(
            "lmi", mp.mem.local_miss_queue
        )
        self.ni_in: List[BoundedQueue[Message]] = [
            BoundedQueue(f"ni_in{v}", mp.mem.ni_input_queue)
            for v in range(mp.mem.virtual_networks)
        ]
        self.probe_replies: List[Message] = []
        #: Installed by the node (PPEngine or the SMTp port adapter).
        self.engine: Optional[ProtocolEngine] = None
        self._lmi_vs_vn0 = False  # cycling priority
        # Dispatchable messages across probe_replies/local_queue/ni_in,
        # maintained at every enqueue/dequeue: the dispatch poll and the
        # machine's wake scan test this instead of walking the queues
        # on every MC-clock edge of every controller.
        self._n_input = 0
        #: Active-set scheduler state: first MC-clock cycle not stepped
        #: densely (0 = in the machine's active set).  While sleeping,
        #: the owed dispatch-poll side effects (the arbitration-parity
        #: flips of :meth:`step`) are replayed by :meth:`mc_wake` via
        #: :meth:`fast_forward`; every input-arrival site settles
        #: *before* mutating state so engine readiness and queue
        #: emptiness are constant over the replayed window.
        self._sleep_from = 0
        #: Backref installed by :class:`repro.core.machine.Machine`.
        self.machine = None
        # Active-memory extension: waiters per word, FIFO.
        self._am_pending: Dict[int, List[Callable[[int], None]]] = {}

    # ------------------------------------------------------------------
    # Ports wired to the hierarchy
    # ------------------------------------------------------------------

    def app_miss(self, entry: MSHREntry) -> None:
        """Hierarchy reported an application L2 miss."""
        mtype = request_type(entry.request_upgrade, entry.kind.wants_write)
        home = self.layout.home_of(entry.line_addr)
        msg = Message(
            mtype, entry.line_addr, src=self.node_id, dest=home,
            requester=self.node_id,
        )
        self._enqueue_local(msg)

    def writeback(self, line_addr: int, version: int, dirty: bool) -> None:
        """Hierarchy evicted a writable line: compose the PUT."""
        home = self.layout.home_of(line_addr)
        msg = Message(
            MsgType.PUT, line_addr, src=self.node_id, dest=home,
            requester=self.node_id, version=version, dirty=dirty,
        )
        if home == self.node_id:
            self._enqueue_local(msg)
        else:
            self.stats.messages_out += 1
            self.send_to_network(msg)

    def proto_miss(self, line_addr: int, on_done: Callable[[int], None]) -> None:
        """Protocol-space miss on the dedicated 64-bit SDRAM bus."""
        ready = self.sdram.access(self.wheel.now)
        self.wheel.schedule_at(ready, partial(on_done, 0))

    def proto_writeback(self, line_addr: int) -> None:
        self.sdram.access(self.wheel.now)

    def _enqueue_local(self, msg: Message) -> None:
        if self.local_queue.push(msg):
            if self._sleep_from:
                self.mc_wake()
            self._n_input += 1
        else:
            self.wheel.schedule(
                LOCAL_QUEUE_LATENCY, partial(self._enqueue_local, msg)
            )

    # ------------------------------------------------------------------
    # Active-memory extension (repro.protocol.extensions)
    # ------------------------------------------------------------------

    def am_request(
        self,
        addr: int,
        op_code: int,
        operand: int,
        on_value: Callable[[int], None],
    ) -> None:
        """Issue an uncached remote fetch-and-op to ``addr``'s home.

        The home's protocol engine runs ``h_am_op``; replies return in
        per-word FIFO order, so a deque of waiters per word suffices.
        """
        self._am_pending.setdefault(addr, []).append(on_value)
        home = self.layout.home_of(addr)
        msg = Message(
            MsgType.AM_OP, addr, src=self.node_id, dest=home,
            requester=self.node_id, version=operand, acks=op_code,
        )
        if home == self.node_id:
            self._enqueue_local(msg)
        else:
            self.stats.messages_out += 1
            self.send_to_network(msg)

    def _am_execute(self, ctx: HandlerContext) -> None:
        """The AMO hardware op: RMW against home memory words."""
        from repro.protocol.extensions import apply_am_op

        msg = ctx.msg
        old = self.hierarchy.read_word(msg.addr)
        self.hierarchy.write_word(msg.addr, apply_am_op(msg.acks, old, msg.version))
        ctx.am_result = old
        self.sdram.access(self.wheel.now)

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def ni_receive(self, msg: Message) -> bool:
        """Fabric delivery; False applies backpressure."""
        if not self.ni_in[msg.vn].push(msg):
            return False
        if self._sleep_from:
            self.mc_wake()
        self._n_input += 1
        self.stats.messages_in += 1
        if msg.mtype in (MsgType.GET, MsgType.GETX, MsgType.UPGRADE):
            self.stats.remote_requests_in += 1
        return True

    # ------------------------------------------------------------------
    # Dispatch (one attempt per MC cycle)
    # ------------------------------------------------------------------

    def step(self) -> None:
        engine = self.engine
        if engine is None or not engine.can_accept():
            return
        if not self._n_input:
            # An empty poll's only effect in _select_message is the
            # LMI/VN0 arbitration-parity flip; do just that.
            self._lmi_vs_vn0 = not self._lmi_vs_vn0
            return
        msg = self._select_message()
        if msg is None:
            return
        self._dispatch(msg)

    def has_pending_input(self) -> bool:
        """Any dispatchable message queued (activity-contract probe)."""
        return self._n_input > 0

    def mc_wake(self) -> None:
        """Leave per-controller sleep: replay the owed dispatch-poll
        side effects over the slept window and rejoin the machine's
        active set.  Called by every input-arrival site (before the
        enqueue) and by the SMTp port when its handler graduates
        (before acceptance flips) — so the window replayed by
        :meth:`fast_forward` saw constant engine readiness and empty
        queues, exactly the conditions its closed form assumes."""
        sf = self._sleep_from
        if sf:
            self._sleep_from = 0
            m = self.machine
            m._mc_dirty = True
            end = m._mc_edge_done
            if end >= sf:
                self.fast_forward(sf, end, m._mc_divisor)

    def fast_forward(self, start: int, end: int, divisor: int) -> None:
        """Replay the side effect of the idle dispatch polls this MC
        would have made on the MC-clock edges in ``[start, end]``.

        With every queue empty and the engine accepting, a dense
        :meth:`step` still flips the LMI/VN0 arbitration parity via
        :meth:`_select_message`; the machine's fast-forward path calls
        this instead so arbitration stays bit-identical.  Engine
        readiness is constant across the window — the machine wakes at
        ``engine.ready_cycle()`` edges — so one endpoint test suffices.
        """
        engine = self.engine
        if engine is None:
            return
        ready = engine.ready_cycle()
        if ready is None or ready > end:
            return  # not accepting anywhere in the window: no polls
        if self.has_pending_input():
            return  # defensive: an accepting MC with input never sleeps
        lo = max(start, ready)
        polls = end // divisor - (lo - 1) // divisor
        if polls & 1:
            self._lmi_vs_vn0 = not self._lmi_vs_vn0

    def _select_message(self) -> Optional[Message]:
        if self.probe_replies:
            self._n_input -= 1
            return self.probe_replies.pop(0)
        ni = self.ni_in
        if ni[1]._items:
            self._n_input -= 1
            return ni[1].pop()
        if ni[2]._items:
            self._n_input -= 1
            return ni[2].pop()
        first, second = (
            (self.local_queue, ni[0])
            if self._lmi_vs_vn0
            else (ni[0], self.local_queue)
        )
        self._lmi_vs_vn0 = not self._lmi_vs_vn0
        if first._items:
            self._n_input -= 1
            return first.pop()
        if second._items:
            self._n_input -= 1
            return second.pop()
        return None

    def _dispatch(self, msg: Message) -> None:
        engine = self.engine
        assert engine is not None  # step() only dispatches with one
        if msg.mtype is MsgType.L2_PROBE_REPLY:
            kind = msg.probe_kind
            assert kind is not None  # stamped by _execute_probe's reply
            probe = self.bundle.probe_dispatch if self.bundle else PROBE_DISPATCH
            name = probe[kind]
        else:
            name = handler_name_for(msg, self.node_id, self.bundle)
        ctx = HandlerContext(msg, self.handlers[name], incoming_header(msg))
        ctx.dispatched_at = self.wheel.now
        if msg.mtype in EXPECTS_MEMORY_DATA and msg.dest == self.node_id:
            # Start the line fetch in parallel with the handler.
            ctx.data_ready_at = self.sdram.access(self.wheel.now)
        self.stats.protocol.count_handler(name)
        engine.dispatch(ctx)

    # ------------------------------------------------------------------
    # Uncached operations called back by the executing engine
    # ------------------------------------------------------------------

    def uncached_op(self, ctx: HandlerContext, instr: PInstr, value: int) -> None:
        op = instr.op
        if op is POp.SENDH:
            ctx.out_header = value
        elif op is POp.SENDA:
            self._execute_send(ctx, value)
        elif op is POp.PROBE:
            self._execute_probe(ctx, instr.imm, value)
        elif op is POp.COMPLETE:
            self._apply_reply(ctx.msg)
        elif op is POp.RESEND:
            self._resend(ctx.msg.addr, as_getx=instr.imm == RESEND_AS_GETX)
        elif op is POp.MEMWR:
            self._memwr(ctx)
        elif op is POp.AMO:
            self._am_execute(ctx)
        elif op in (POp.SWITCH, POp.LDCTXT):
            pass  # sequencing handled by the engine itself
        else:
            raise ValueError(f"not an uncached op: {op}")

    def _memwr(self, ctx: HandlerContext) -> None:
        msg = ctx.msg
        if msg.dirty:
            self.memory_versions[msg.addr] = msg.version
        else:
            self.memory_versions.setdefault(msg.addr, msg.version)
        self.sdram.access(self.wheel.now)  # the write occupies the bus

    def _execute_send(self, ctx: HandlerContext, addr_value: int) -> None:
        if ctx.out_header is None:
            raise ValueError("SENDA without a latched header (missing SENDH)")
        header = ctx.out_header
        ctx.out_header = None
        mtype = MTYPE_BY_VALUE[header_type(header)]
        dest = header_peer(header)
        # Active-memory replies address exact words, not lines.
        addr = (
            addr_value
            if mtype is MsgType.AM_REPLY
            else self.layout.line_addr(addr_value)
        )
        msg = Message(
            mtype,
            addr,
            src=self.node_id,
            dest=dest,
            requester=(header >> 16) & 0x3F,
            acks=header_acks(header),
        )
        if mtype is MsgType.AM_REPLY:
            msg.version = ctx.am_result
        ready = self.wheel.now
        if msg.carries_data:
            if ctx.msg.mtype is MsgType.L2_PROBE_REPLY:
                # Data came out of the local L2 probe.
                msg.version = ctx.msg.version
                msg.dirty = ctx.msg.dirty
            else:
                # Data comes from home memory (fetched at dispatch or
                # just written by MEMWR).
                msg.version = self.memory_versions.get(msg.addr, 0)
                msg.dirty = False
                ready = max(ready, ctx.data_ready_at)
        self.stats.protocol.messages_sent += 1
        if mtype is MsgType.NACK:
            self.stats.protocol.nacks_sent += 1
        if dest == self.node_id:
            self._deliver_local(msg, ready)
        else:
            self.stats.messages_out += 1
            if ready <= self.wheel.now:
                self.send_to_network(msg)
            else:
                self.wheel.schedule_at(ready, partial(self.send_to_network, msg))

    def _deliver_local(self, msg: Message, ready: int) -> None:
        delay = max(0, ready - self.wheel.now) + LOCAL_REPLY_LATENCY
        if msg.mtype in REPLY_TYPES:
            self.wheel.schedule(delay, partial(self._apply_reply, msg))
        else:
            self.wheel.schedule(delay, partial(self._enqueue_local, msg))

    def _execute_probe(self, ctx: HandlerContext, kind_imm: int, addr_value: int) -> None:
        line = self.layout.line_addr(addr_value)
        probe_kind = ctx.msg.mtype  # INT_SHARED / INT_EXCL / INVAL
        origin = ctx.msg  # carries home (src) and requester
        self.hierarchy.probe(
            line,
            PROBE_KIND[probe_kind],
            partial(self._probe_response, line, probe_kind, origin),
        )

    def _probe_response(
        self,
        line: int,
        probe_kind: "MsgType",
        origin: Message,
        found: bool,
        dirty: bool,
        version: int,
    ) -> None:
        reply = Message(
            MsgType.L2_PROBE_REPLY,
            line,
            src=origin.src,
            dest=self.node_id,
            requester=origin.requester,
            version=version,
            dirty=dirty,
            found=found,
        )
        reply.probe_kind = probe_kind
        if self._sleep_from:
            self.mc_wake()
        self.probe_replies.append(reply)
        self._n_input += 1

    def _apply_reply(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype is MsgType.DATA_SHARED:
            self.hierarchy.refill(msg.addr, writable=False, version=msg.version,
                                  acks=msg.acks, dirty=False)
        elif mtype is MsgType.DATA_EXCL:
            self.hierarchy.refill(msg.addr, writable=True, version=msg.version,
                                  acks=msg.acks, dirty=msg.dirty)
        elif mtype is MsgType.UPGRADE_ACK:
            self.hierarchy.upgrade_ack(msg.addr, msg.acks)
        elif mtype is MsgType.INV_ACK:
            self.hierarchy.inval_ack(msg.addr)
        elif mtype is MsgType.WB_ACK:
            self.hierarchy.wb_ack(msg.addr)
        elif mtype is MsgType.AM_REPLY:
            waiters = self._am_pending.get(msg.addr)
            if not waiters:
                raise ProtocolError(
                    f"node {self.node_id}: AM reply {msg.addr:#x} with no waiter"
                )
            waiters.pop(0)(msg.version)
            if not waiters:
                del self._am_pending[msg.addr]
        elif mtype is MsgType.NACK:
            self._resend(msg.addr, as_getx=False)
        elif mtype is MsgType.NACK_UPGRADE:
            self._resend(msg.addr, as_getx=True)
        else:
            raise ValueError(f"not a reply: {msg}")

    def _resend(self, line_addr: int, as_getx: bool) -> None:
        entry = self.hierarchy.mshrs.get(line_addr)
        if entry is None:
            return  # transaction already completed (stale NACK)
        retries = self.hierarchy.record_retry(line_addr)
        self.stats.protocol.retries += 1
        if as_getx:
            entry.request_upgrade = False
        mtype = request_type(entry.request_upgrade, entry.kind.wants_write)
        home = self.layout.home_of(line_addr)
        msg = Message(mtype, line_addr, src=self.node_id, dest=home,
                      requester=self.node_id)
        backoff = RETRY_BASE + min(retries, 8) * RETRY_STEP
        if home == self.node_id:
            self.wheel.schedule(backoff, partial(self._enqueue_local, msg))
        else:
            self.wheel.schedule(backoff, partial(self._send_retry, msg))

    def _send_retry(self, msg: Message) -> None:
        self.stats.messages_out += 1
        self.send_to_network(msg)
