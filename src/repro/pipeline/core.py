"""The out-of-order SMT core.

Nine logical stages (fetch, decode, rename, issue, two register-read
stages, execute, cache access, commit) modelled as four simulation
stages with queue latencies in between; the front-end depth shows up
in the mispredict redirect penalty and in issue-to-complete latencies.

SMT mechanics per the paper:

* ICOUNT(2,8) fetch: the two least-occupying threads share an 8-wide
  fetch, first thread until a predicted-taken branch.
* Dynamically shared decode/rename queues, IQ, LSQ, store buffer,
  MSHRs and physical registers, with one reserved instance of each for
  the protocol thread (deadlock avoidance, §2.2).
* Round-robin commit within and across cycles.
* Per-thread active lists (128 entries).
* The protocol thread's uncached operations execute non-speculatively
  at graduation; SWITCH stalls at the head until the dispatch unit
  supplies the next request.

Trace-driven speculation: sources supply oracle outcomes, the
predictor supplies guesses; on a mispredict the thread fetches
synthetic wrong-path µops that consume real resources until the branch
resolves, at which point the thread's younger µops are squashed and
the map/RAS checkpoints restored.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

from repro.apps.compile import app_interp_forced
from repro.caches.hierarchy import BLOCKED, HIT
from repro.common.params import ProcessorParams
from repro.common.queues import DualQueue, ReservedPool
from repro.common.stats import ThreadStats
from repro.isa.uop import FP_BASE, Uop, UopKind
from repro.pipeline.branch import BTB, ReturnAddressStack, TournamentPredictor
from repro.pipeline.reference import WRONG_PATH_CAP, ReferenceStages
from repro.pipeline.regfile import RenameUnit
from repro.protocol.extensions import AM_OPS

#: Extra cycles from issue to execute (the two register-read stages).
READ_STAGES = 2

_EXEC_LATENCY = {
    UopKind.ALU: 1,
    UopKind.SYNTH: 1,
    UopKind.NOP: 1,
    UopKind.MUL: 6,
    UopKind.DIV: 35,
    UopKind.FALU: 1,
    UopKind.FDIV: 19,
    UopKind.BRANCH: 1,
    UopKind.CALL: 1,
    UopKind.RETURN: 1,
}

#: ``READ_STAGES + _latency_of`` for µops whose own ``latency`` field is
#: the default 1 (every µop the application tier emits), indexed by
#: kind — the compiled issue path's table form of :meth:`SMTCore._latency_of`.
_LAT1 = [READ_STAGES + _EXEC_LATENCY.get(UopKind(_k), 1) if _k else 0
         for _k in range(max(UopKind) + 1)]


class ThreadContext:
    """Per-hardware-context front-end and window state."""

    __slots__ = (
        "tid",
        "source",
        "protocol",
        "compiled_src",
        "rob",
        "icount",
        "fetch_stalled",
        "cur_fetch_line",
        "wrongpath_branch",
        "wp_emitted",
        "wp_pc",
        "mem_seq_next",
        "mem_issue_next",
        "ras",
        "stats",
        "done",
        "bit",
        "stall_from",
        "stall_mem",
    )

    def __init__(self, tid: int, source, protocol: bool, stats: ThreadStats) -> None:
        self.tid = tid
        #: This context's bit in the core's per-thread verdict masks.
        self.bit = 1 << tid
        self.source = source
        self.protocol = protocol
        # Sampled once: the superblock-compiled fetch path needs the
        # source's cursor/boundary state (repro.apps.compile).
        self.compiled_src = bool(getattr(source, "compiled", False))
        self.rob: Deque[Uop] = deque()
        self.icount = 0
        self.fetch_stalled = False
        self.cur_fetch_line = -1
        self.wrongpath_branch: Optional[Uop] = None
        self.wp_emitted = 0
        self.wp_pc = 0
        self.mem_seq_next = 0
        self.mem_issue_next = 0
        self.ras = ReturnAddressStack()
        self.stats = stats
        self.done = False
        # Stall anchor: nonzero while the window head has been stalled
        # since that cycle (inclusive) and the stall cycles are not yet
        # charged; ``stall_mem`` picks the counter (see SMTCore._settle).
        self.stall_from = 0
        self.stall_mem = False


class SMTCore(ReferenceStages):
    def __init__(self, node, sources: List, proto_source=None) -> None:
        """``sources`` are the application thread programs; the optional
        ``proto_source`` is the protocol-thread shadow interpreter."""
        self.node = node
        self.pp: ProcessorParams = node.mp.proc
        self.hierarchy = node.hierarchy
        self.wheel = node.wheel
        self.machine = None  # set by the machine for commit stamps

        pp = self.pp
        self.rename = RenameUnit(pp)
        self.predictor = TournamentPredictor(
            pp.total_threads, pp.local_history_bits, pp.global_history_bits
        )
        self.btb = BTB(pp.btb_sets, pp.btb_assoc)

        res = pp.protocol_thread
        self.decode_q: DualQueue[Uop] = DualQueue(
            "decode", pp.decode_queue_slots, pp.reserved_decode_slots if res else 0
        )
        self.rename_q: DualQueue[Uop] = DualQueue(
            "rename", pp.rename_queue_slots, pp.reserved_rename_slots if res else 0
        )
        self.iq_pool = ReservedPool(
            "iq", pp.int_queue, pp.reserved_int_queue if res else 0
        )
        self.fq_pool = ReservedPool("fq", pp.fp_queue, 0)
        self.lsq_pool = ReservedPool(
            "lsq", pp.lsq_slots, pp.reserved_lsq_slots if res else 0
        )
        self.sb_pool = ReservedPool(
            "sb", pp.store_buffer, pp.reserved_store_buffer if res else 0
        )
        self.bstack_pool = ReservedPool(
            "bstack", pp.branch_stack, pp.reserved_branch_stack if res else 0
        )
        self.iq: List[Uop] = []
        self.fq: List[Uop] = []

        self.threads: List[ThreadContext] = []
        for tid, source in enumerate(sources):
            tstats = ThreadStats(node=node.node_id, context=tid)
            node.stats.threads.append(tstats)
            self.threads.append(ThreadContext(tid, source, False, tstats))
        self.proto_tid = -1
        if proto_source is not None:
            tid = len(self.threads)
            self.proto_tid = tid
            tstats = ThreadStats(node=node.node_id, context=tid)
            self.threads.append(ThreadContext(tid, proto_source, True, tstats))

        self._seq = 0
        self.cycle = 0
        # First cycle this core steps.  The commit round-robin pointer
        # and the decode/rename section-priority parity advance once
        # per cycle from here, so they are functions of the cycle
        # number rather than stored state (see _commit/_step_nt).
        self._cycle0 = self.wheel.now + 1
        # Static-parameter and thread-subset caches for the per-cycle
        # stages (two attribute loads each on the reference path).
        self._active_list = pp.active_list_per_thread
        self._few = pp.front_end_width
        self._commit_width = pp.commit_width
        self._fetch_width = pp.fetch_width
        self._app_threads = [t for t in self.threads if not t.protocol]
        n = len(self.threads)
        # Commit visiting order per round-robin pointer value.
        self._rr_orders = [self.threads[r:] + self.threads[:r] for r in range(n)]
        self.div_free_at = 0
        self.fdiv_free_at = 0
        # Activity contract (see DESIGN.md): ``_worked`` records whether
        # the last step changed any state the lazily accrued counters
        # do not cover; ``_wake_flag`` is set by asynchronous
        # completion paths (wheel callbacks, MC dispatch, MSHR frees) to
        # force the next step to run densely; ``_unit_wake`` is the
        # earliest cycle a busy div/fdiv unit frees while gating an
        # otherwise-ready µop (a timed sleep).
        self._worked = True
        self._wake_flag = True
        self._unit_wake = 0
        # Out of the machine's active set (active-set scheduler): set
        # by Machine._event_step when idle with no pending unit wake,
        # cleared by the wake hooks.  While True the machine pays
        # nothing per cycle for this core.
        self._asleep = False
        self._done_sticky = False
        # Wrong-path filler templates, keyed (tid, dest) — see
        # _make_synth.
        self._synth_tmpl: Dict[Tuple[int, int], Uop] = {}
        # Same-thread store->load forwarding values (word granularity).
        self._pending_stores: Dict[Tuple[int, int], List[int]] = {}
        # Per-thread store-buffer FIFO: stores drain strictly in program
        # order (the paper's processor is sequentially consistent).
        self._sb_fifo: Dict[int, Deque[Uop]] = {
            t.tid: deque() for t in self.threads
        }
        # Fused issue window (_step_1t / _step_nt).  The reference scan
        # (_issue) keeps every waiting µop in one list and re-tests
        # n_wait/budgets per µop per cycle; the fused paths split the
        # window by *why* a µop is waiting — ready non-memory µops in
        # per-side heaps keyed by IQ admission order (admitted by the
        # rename unit's on_ready hook the moment their last source
        # completes), memory µops in per-thread program-order FIFOs
        # whose heads are the only possible issue candidates (mem_seq
        # gating), prefetches in their own FIFO — so each issue cycle
        # touches only actionable µops.  Bit-identical to _issue:
        # candidates are processed in admission order, exactly the
        # reference list order.  REPRO_APP_INTERP=1 keeps every core on
        # the reference step() instead.
        fused = not app_interp_forced()
        self._iq_pos = 0
        self._iqr: List[Tuple[int, Uop]] = []
        self._fqr: List[Tuple[int, Uop]] = []
        self._pf_fifo: Deque[Uop] = deque()
        self._mem_fifo: Dict[int, Deque[Uop]] = {
            t.tid: deque() for t in self.threads
        }
        # Memory µops in the FIFOs whose sources are all ready.  Only a
        # FIFO *head* can issue, but heads are the oldest entries, so
        # "no ready µop anywhere" ⇒ "no candidate head" and the issue
        # stage can be skipped without losing the reference's
        # blocked-attempt recurrence (an attempt needs n_wait == 0).
        self._mem_ready = 0
        if fused:
            self.rename.on_ready = self._uop_ready
        # Rename-stall latch: nonzero when the rename-queue head
        # bounced off a full resource, coded by what blocked it —
        # 1 = issue-queue pool (freed only by issue or squash),
        # 2 = window/register/LSQ/branch-stack (freed by retire or
        # squash).  Issue and squash clear the latch outright; retire
        # clears only code 2 (``&= 1``) since it frees no IQ slot.
        # While latched, _step_1t skips the per-cycle rename
        # retry — the reference retries every cycle, but a retry
        # between two frees is a guaranteed failure, so skipping it
        # changes nothing.
        self._rn_wait = 0
        # Fully fused per-cycle path for the single-compiled-app-thread
        # core (every non-SMTp model at ways=1) — see _step_1t.  The
        # app-side pool/queue limits are immutable after construction,
        # so the fused stages read one precomputed bound instead of
        # re-deriving ``total - reserved`` per cycle.
        self._t0 = self.threads[0]
        self._t0_fifo = self._mem_fifo[self._t0.tid]
        self._t0_sb = self._sb_fifo[self._t0.tid]
        # No protocol context exists on the fused core, so ``proto_used``
        # is identically 0 for every pool and the app-side occupancy
        # tests reduce to ``app_used >= cap``.
        self._sb_cap = self.sb_pool.total - self.sb_pool.reserved
        self._iq_cap = self.iq_pool.total - self.iq_pool.reserved
        self._fq_cap = self.fq_pool.total - self.fq_pool.reserved
        self._lsq_cap = self.lsq_pool.total - self.lsq_pool.reserved
        self._bs_cap = self.bstack_pool.total - self.bstack_pool.reserved
        self._dq_room = self.decode_q.capacity - self.decode_q.reserved
        self._rq_room = self.rename_q.capacity - self.rename_q.reserved
        # Scratch list for DIV/FDIV µops parked while their unit is
        # busy (rare) — reused across cycles so the common all-clear
        # issue pass allocates nothing.
        self._gated: List[Tuple[int, Uop]] = []
        self._use_1t = (
            fused and len(self.threads) == 1 and self._t0.compiled_src
        )
        # Fused general path (_step_nt): every other core — SMTp cores
        # (app + protocol contexts), ways>=2 cells, and one-context
        # cores fed by an interpreted source or holding only the
        # protocol thread.
        self._use_nt = fused and not self._use_1t
        self._tproto = (
            self.threads[self.proto_tid] if self.proto_tid >= 0 else None
        )
        # Per-section rename-stall latches for _step_nt — the two-
        # section generalization of _rn_wait: a section whose queue
        # head bounced off a full resource is skipped until issue,
        # retire (code 2 only), or squash frees something.  Renames
        # only consume resources, so one section renaming never
        # unblocks the other; the clears are shared with _rn_wait's
        # (conservative: any free clears both sections).
        self._rn_wait_app = 0
        self._rn_wait_proto = 0
        # Fixed thread set after construction: the per-thread memory
        # FIFOs as a list, saving the dict-items walk per issue cycle.
        self._mem_items = list(self._mem_fifo.items())
        # Lazily accrued per-cycle counters.  The dense step charges
        # every cycle a stall cycle to each thread whose window head
        # cannot retire, and a busy cycle to the protocol thread while
        # its port is not idle (Table 7).  Here those charges accrue
        # from anchor cycles instead: ``ThreadContext.stall_from`` and
        # ``_busy_from`` (0 = no anchor), charged by _settle.
        # ``_accruing`` says the anchors are live: always on _step_nt
        # cores, which keep them up to date at every verdict change;
        # on _step_1t and reference cores, which count densely while
        # awake, only between _open_anchors (sleep start or machine
        # skip) and the next step.
        self._busy_from = 0
        self._accruing = self._use_nt
        # Per-thread verdicts for _step_nt, as bit masks over
        # ``ThreadContext.bit``.  They are caches of pure functions of
        # core state, cleared by exactly the events that can change
        # them, so a stalled thread costs nothing per cycle:
        # * ``_cm_dirty`` — commit must examine this thread's head.  A
        #   clear bit means the head is stalled (anchor open) or the
        #   window is empty and the thread cannot finish yet.  Set by
        #   head completion, rename into an empty window, squash,
        #   retirement (the thread stays set while it can retire),
        #   store-buffer drain and handler dispatch (all threads /
        #   the protocol thread), and a source found done by fetch.
        # * ``_ft_parked`` — the thread is not a fetch candidate for a
        #   reason of its own: done, I-miss, wrong-path cap, or its
        #   source parked.  Cleared by I-fill, source wake, squash,
        #   value delivery and the port's start edge.  Decode-queue
        #   room is tested per cycle, never latched.
        # * ``_busy_dirty`` — the protocol port's busy status may have
        #   changed (dispatch, protocol fetch/rename/retire/squash); it
        #   is re-derived at the next step's start, where the dense
        #   step samples it.
        self._t_all = (1 << n) - 1
        self._cm_dirty = self._t_all
        self._ft_parked = 0
        self._busy_dirty = self._tproto is not None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        # Thread completion is monotone (ThreadContext.done is only
        # ever set True, in _commit), so the all-done answer is sticky
        # and the per-call thread walk can stop after the first True.
        if self._done_sticky:
            return True
        for t in self.threads:
            if not t.protocol and not t.done:
                return False
        self._done_sticky = True
        return True

    def protocol_quiescent(self) -> bool:
        """True when the protocol thread has no effects left to apply —
        at most a SWITCH/LDCTXT pair stalled waiting for traffic."""
        if self.proto_tid < 0:
            return True
        t = self.threads[self.proto_tid]
        if t.source.fetching or t.source._buffer:
            return False
        return all(
            u.kind in (UopKind.SWITCH, UopKind.LDCTXT) for u in t.rob
        )

    def describe_state(self) -> str:
        parts = []
        for t in self.threads:
            head = t.rob[0] if t.rob else None
            parts.append(
                f"t{t.tid}{'p' if t.protocol else ''}: rob={len(t.rob)} "
                f"ic={t.icount} head={head}"
            )
        return f"core {self.node.node_id}: " + " | ".join(parts)

    # ------------------------------------------------------------------
    def wake_handler(self) -> None:
        """The SMTp port handed out a request (``SMTpPort.dispatch``):
        the protocol thread's SWITCH/LDCTXT head may graduate, its fetch
        may start, and the port turned busy."""
        tp = self._tproto
        if tp is not None:
            self._cm_dirty |= tp.bit
            self._ft_parked &= ~tp.bit
        self._busy_dirty = True
        self.wake_quiet()

    def wake_fetch(self) -> None:
        """Wake for events that can only create fetch candidates
        (thread-program sleep expiry / sync unpark): the commit
        verdicts still hold."""
        self._ft_parked = 0
        self.wake_quiet()

    def wake_quiet(self) -> None:
        """Asynchronous input state changed: step densely next cycle.

        Alone, the wake for pure progress pokes (MSHR frees, bypass
        fills): they unblock deferred *issue* retries, which touch
        neither the commit heads nor the fetch candidate set — any
        state change they lead to arrives later via
        :meth:`_complete`.  A spurious wake costs one dense no-op step
        and is always safe."""
        self._wake_flag = True
        if self._asleep:
            # Rejoin the machine's active set (active-set scheduler).
            self._asleep = False
            m = self.machine
            if m is not None:
                m._cores_dirty = True

    # ------------------------------------------------------------------
    # Lazily accrued counters
    # ------------------------------------------------------------------

    def _settle(self, end: int, close: bool) -> None:
        """Charge the open anchors' cycles ``[anchor, end)``; then
        close them (``close``) or re-open them at ``end``."""
        b = self._busy_from
        if b:
            self.node.stats.protocol.busy_cycles += end - b
            self._busy_from = 0 if close else end
        for t in self.threads:
            s = t.stall_from
            if s:
                if t.stall_mem:
                    t.stats.memory_stall_cycles += end - s
                else:
                    t.stats.other_stall_cycles += end - s
                t.stall_from = 0 if close else end

    def settle(self) -> None:
        """Bring the accrued counters up to date through the current
        cycle, for a stats read between machine cycles."""
        if self._accruing:
            self._settle(self.wheel.now + 1, False)

    def _open_anchors(self, start: int) -> None:
        """Start accruing from cycle ``start`` on a core that counts
        densely while awake (:meth:`_step_1t`, the reference
        :meth:`step`): it is about to sleep or be skipped, and its
        verdicts are frozen until a wake makes it step, which settles
        them (:meth:`_stop_accruing`)."""
        self._accruing = True
        self._busy_eval(start)
        for t in self.threads:
            if t.rob and not self._retirable(t.rob[0]):
                t.stall_from = start
                t.stall_mem = t.rob[0].is_memory

    def _stop_accruing(self) -> None:
        """A densely counting core steps again: charge its sleep."""
        self._settle(self.wheel.now, True)
        self._accruing = False

    def _busy_eval(self, at: int) -> None:
        """Re-derive the protocol port's busy status for cycles from
        ``at`` on, settling the anchor when it changes.

        Table 7: the protocol thread is "active" while a handler has
        effects in flight; a SWITCH idling at the head waiting for
        traffic does not count (``port.idle()``, inlined).
        """
        self._busy_dirty = False
        busy = False
        tp = self._tproto
        if tp is not None:
            src = tp.source
            port = src.port
            if port is not None:
                if port.pending is not None or src.fetching or src._buffer:
                    busy = True
                else:
                    for u in tp.rob:
                        k = u.kind
                        if k is not UopKind.SWITCH and k is not UopKind.LDCTXT:
                            busy = True
                            break
        if busy:
            if not self._busy_from:
                self._busy_from = at
        elif self._busy_from:
            self.node.stats.protocol.busy_cycles += at - self._busy_from
            self._busy_from = 0

    def _note_unit_wake(self, free_at: int) -> None:
        if self._unit_wake == 0 or free_at < self._unit_wake:
            self._unit_wake = free_at

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the core one cycle.

        Dispatches to the fused path chosen at construction —
        :meth:`_step_1t` for one compiled application thread,
        :meth:`_step_nt` for every other core — or, under
        ``REPRO_APP_INTERP=1``, runs the plain-scan reference stages
        (:mod:`repro.pipeline.reference`): the executable specification
        every fused path is differentially tested against.
        """
        if self._use_1t:
            self._step_1t()
            return
        if self._use_nt:
            self._step_nt()
            return
        if self._accruing:
            self._stop_accruing()
        self.cycle = self.wheel.now
        self._worked = self._wake_flag
        self._wake_flag = False
        self._unit_wake = 0
        if self.proto_tid >= 0:
            port = self.threads[self.proto_tid].source.port
            if port is not None and not port.idle():
                # Table 7: the protocol thread is "active" while a
                # handler has effects in flight.  A SWITCH idling at
                # the head waiting for traffic does not count.
                self.node.stats.protocol.busy_cycles += 1
        self._commit()
        self._issue()
        self._rename_stage()
        self._decode_stage()
        self._fetch()

    def _step_1t(self) -> None:
        """:meth:`step`, fused for one compiled application thread.

        Every non-SMTp model at ways=1 runs exactly one app context and
        no protocol context, so ICOUNT selection, section-priority
        scheduling, and the commit round-robin all degenerate; this
        path inlines the stage bodies with those degenerate branches
        removed.  Observationally identical to :meth:`step`: same stage
        order, same per-cycle side effects (stall counters), same
        ``_worked`` accounting.  The decode/rename section-priority
        parity is not consulted — it only arbitrates between the app and
        protocol sections and the protocol section does not exist here.
        Application sources never produce commit-stage µops, so head
        retirability reduces to ``completed`` (+ store-buffer room for
        stores).  Stall cycles are counted densely while awake; a
        sleep accrues them from anchors (:meth:`_open_anchors`).
        """
        if self._accruing:
            self._stop_accruing()
        self.cycle = self.wheel.now
        self._worked = self._wake_flag
        self._wake_flag = False
        self._unit_wake = 0
        t = self._t0
        # -- commit ----------------------------------------------------
        rob = t.rob
        if rob:
            head = rob[0]
            sb = self.sb_pool
            sb_cap = self._sb_cap
            if head.completed and (
                head.kind is not UopKind.STORE
                or sb.app_used < sb_cap
            ):
                # Retirement loop with :meth:`_retire` inlined in its
                # app-specialized form: no commit-stage kinds, no
                # protocol thread, pool/regfile releases as plain
                # app-side arithmetic.  Code 1 of the rename latch
                # stays latched (retirement frees no issue-queue slot).
                budget = self._commit_width
                stats = t.stats
                rn = self.rename
                free_fp = rn._free_fp
                free_int = rn._free_int
                committed = 0
                spin_committed = 0
                while True:
                    self._rn_wait &= 1
                    if head.spin:
                        spin_committed += 1
                    kind = head.kind
                    if kind is UopKind.STORE:
                        sb.app_used += 1
                        sfifo = self._t0_sb
                        sfifo.append(head)
                        if len(sfifo) == 1:
                            self._drain_store(head)
                        stats.stores += 1
                    elif kind is UopKind.LOAD:
                        stats.loads += 1
                    if head.in_lsq:
                        self.lsq_pool.app_used -= 1
                    if head.is_branch:
                        self.bstack_pool.app_used -= 1
                    p = head.pdest_old
                    if p != -1:
                        if p >= 1 << 20:
                            free_fp.append(p - (1 << 20))
                        else:
                            free_int.append(p)
                    committed += 1
                    rob.popleft()
                    budget -= 1
                    if budget <= 0 or not rob:
                        break
                    head = rob[0]
                    if not head.completed or (
                        head.kind is UopKind.STORE
                        and sb.app_used >= sb_cap
                    ):
                        break
                stats.committed += committed
                stats.spin_committed += spin_committed
                self._worked = True
                m = self.machine
                if m is not None:
                    m._commit_cycle = m.cycle  # the watchdog's commit stamp
            elif head.is_memory:
                t.stats.memory_stall_cycles += 1
            else:
                t.stats.other_stall_cycles += 1
        if not t.done and not rob and t.icount == 0 and t.source.done:
            t.done = True
            t.stats.finish_cycle = self.cycle
            t.stats.done = True
            self._worked = True
        # -- issue -----------------------------------------------------
        fifo = self._t0_fifo
        if (
            self._iqr
            or self._fqr
            or self._pf_fifo
            or (fifo and not fifo[0].n_wait)
        ):
            self._issue_1t()
        # -- rename ----------------------------------------------------
        rqa = self.rename_q.app
        if rqa and not self._rn_wait:
            self._rename_1t(rqa)
        # -- decode ----------------------------------------------------
        dqa = self.decode_q.app
        if dqa:
            take = self._rq_room - len(rqa)
            n = len(dqa)
            if take > n:
                take = n
            width = self._few
            if take > width:
                take = width
            if take > 0:
                pop = dqa.popleft
                push = rqa.append
                for _ in range(take):
                    push(pop())
                self._worked = True
        # -- fetch -----------------------------------------------------
        if (
            not t.done
            and not t.fetch_stalled
            and len(dqa) < self._dq_room
        ):
            if t.wrongpath_branch is not None:
                if t.wp_emitted < WRONG_PATH_CAP:
                    self._fetch_wrongpath(t, self._fetch_width)
            elif t.source.peek_available():
                self._fetch_thread_fast(t, self._fetch_width)

    def _step_nt(self) -> None:
        """:meth:`step`, fused for every core :meth:`_step_1t` does not
        take — SMTp cores (application thread(s) + protocol thread),
        ways>=2 cells, and one-context cores fed by an interpreted
        source or holding only the protocol thread.

        Observationally identical to the reference :meth:`step`: same
        stage order, same per-cycle side effects, same
        ``_worked``/``_unit_wake`` accounting.  The stage bodies are
        the fused forms: :meth:`_commit_nt` (retire loop with the
        app-side :meth:`_retire` inlined), :meth:`_issue_nt` (the
        ready-heap issue window), an inline rename loop gated by
        *per-section* stall latches (the two-section generalization of
        ``_rn_wait``), and :meth:`_fetch_nt` (ICOUNT selection without
        the sort, fetching through the superblock/compiled-PP fast
        loops).  Commit and fetch visit only threads whose verdict is
        open (see ``__init__``); stall and busy cycles accrue from
        anchors, and the commit round-robin pointer and section parity
        are computed from the cycle number.
        """
        cycle = self.cycle = self.wheel.now
        self._worked = self._wake_flag
        self._wake_flag = False
        self._unit_wake = 0
        if self._busy_dirty:
            self._busy_eval(cycle)
        if self._cm_dirty:
            self._commit_nt()
        if self._iqr or self._fqr or self._mem_ready:
            self._issue_nt()
        # Section priority alternates every cycle, app first on the
        # core's first cycle.
        first_proto = (cycle - self._cycle0) & 1
        # -- rename (per-section stall latches) ------------------------
        rq = self.rename_q
        rqp = rq.proto
        rqa = rq.app
        if (rqp and not self._rn_wait_proto) or (rqa and not self._rn_wait_app):
            renamed = 0
            width = self._few
            for protocol in ((True, False) if first_proto else (False, True)):
                src = rqp if protocol else rqa
                if not src:
                    continue
                if self._rn_wait_proto if protocol else self._rn_wait_app:
                    # Latched head: nothing freed since it last bounced,
                    # so the reference's per-cycle retry is a guaranteed
                    # failure (see __init__) — skip the section.
                    continue
                k = self._rename_nt(src, protocol, width - renamed)
                if k:
                    renamed += k
                    if protocol:
                        self._busy_dirty = True
                    if renamed >= width:
                        break
            if renamed:
                self._worked = True
        # -- decode ----------------------------------------------------
        dq = self.decode_q
        if dq.proto or dq.app:
            self._decode_nt(first_proto)
        # -- fetch -----------------------------------------------------
        if self._ft_parked != self._t_all:
            self._fetch_nt()

    def _rename_nt(self, src: Deque[Uop], protocol: bool, budget: int) -> int:
        """One rename-queue section of :meth:`_step_nt`'s rename stage:
        :meth:`_try_rename` and :meth:`RegfileUnit.rename` fused into a
        single loop (the two-section generalization of
        :meth:`_rename_1t`).  ``protocol`` fixes the pool bounds and
        register-floor for the whole section, so every resource check
        is plain arithmetic over hoisted locals; check order, acquire
        order and issue routing match :meth:`_try_rename` exactly.
        Returns the number renamed; a resource bounce latches the
        section's ``_rn_wait_*`` code and stops the section.
        """
        threads = self.threads
        rn = self.rename
        al = self._active_list
        int_map = rn.int_map
        fp_map = rn.fp_map
        int_ready = rn.int_ready
        fp_ready = rn.fp_ready
        waiters = rn._waiters
        free_int = rn._free_int
        free_fp = rn._free_fp
        int_floor = 0 if protocol else rn.reserved_int
        iq_pool = self.iq_pool
        fq_pool = self.fq_pool
        lsq_pool = self.lsq_pool
        bstack_pool = self.bstack_pool
        if protocol:
            iq_cap = iq_pool.total
            fq_cap = fq_pool.total
            lsq_cap = lsq_pool.total
            bs_cap = bstack_pool.total
        else:
            iq_cap = self._iq_cap
            fq_cap = self._fq_cap
            lsq_cap = self._lsq_cap
            bs_cap = self._bs_cap
        renamed = 0
        while renamed < budget:
            uop = src[0]
            tid = uop.thread
            t = threads[tid]
            commit_stage = uop.commit_stage
            is_fp = uop.is_fp
            if not commit_stage:
                if is_fp:
                    if fq_pool.app_used + fq_pool.proto_used >= fq_cap:
                        code = 1
                        break
                elif iq_pool.app_used + iq_pool.proto_used >= iq_cap:
                    code = 1
                    break
            if len(t.rob) >= al:
                code = 2
                break
            dest = uop.dest
            if dest is not None:
                if dest >= FP_BASE:
                    if not free_fp:
                        code = 2
                        break
                elif len(free_int) <= int_floor:
                    code = 2
                    break
            is_mem = uop.is_memory
            needs_lsq = is_mem or (
                commit_stage and uop.kind is not UopKind.UNCACHED
            )
            if needs_lsq and (
                lsq_pool.app_used + lsq_pool.proto_used >= lsq_cap
            ):
                code = 2
                break
            is_branch = uop.is_branch
            if is_branch:
                if bstack_pool.app_used + bstack_pool.proto_used >= bs_cap:
                    code = 2
                    break
                if protocol:
                    bp_used = bstack_pool.proto_used + 1
                    bstack_pool.proto_used = bp_used
                    if bp_used > bstack_pool.proto_peak:
                        bstack_pool.proto_peak = bp_used
                else:
                    bstack_pool.app_used += 1
                uop.checkpoint = rn.checkpoint(tid, t.ras.snapshot())
            if needs_lsq:
                if protocol:
                    lp_used = lsq_pool.proto_used + 1
                    lsq_pool.proto_used = lp_used
                    if lp_used > lsq_pool.proto_peak:
                        lsq_pool.proto_peak = lp_used
                else:
                    lsq_pool.app_used += 1
                uop.in_lsq = True
                if is_mem and uop.kind is not UopKind.PREFETCH:
                    uop.mem_seq = t.mem_seq_next
                    t.mem_seq_next += 1
            # rename.rename(uop), inlined (identical source mapping,
            # waiter registration and dest allocation).
            imap = int_map[tid]
            fmap = fp_map[tid]
            srcs = uop.srcs
            if srcs:
                n_wait = 0
                psrcs: List[int] = []
                for s in srcs:
                    if s >= FP_BASE:
                        r = fmap[s - FP_BASE]
                        p = r + (1 << 20)
                        ready = fp_ready[r]
                    else:
                        p = imap[s]
                        ready = int_ready[p]
                    psrcs.append(p)
                    if not ready:
                        n_wait += 1
                        lst = waiters.get(p)
                        if lst is None:
                            waiters[p] = [uop]
                        else:
                            lst.append(uop)
                uop.psrcs = tuple(psrcs)
                uop.n_wait = n_wait
            else:
                uop.psrcs = ()
            if dest is not None:
                if dest >= FP_BASE:
                    preg = free_fp.pop()
                    fp_ready[preg] = False
                    uop.pdest = preg + (1 << 20)
                    uop.pdest_old = fmap[dest - FP_BASE] + (1 << 20)
                    fmap[dest - FP_BASE] = preg
                else:
                    preg = free_int.pop()
                    int_ready[preg] = False
                    uop.pdest = preg
                    uop.pdest_old = imap[dest]
                    imap[dest] = preg
                    if protocol:
                        held = rn.proto_int_held + 1
                        rn.proto_int_held = held
                        if held > rn.proto_int_peak:
                            rn.proto_int_peak = held
            rob = t.rob
            if not rob:
                # A new head appears on an empty window: open the
                # thread's commit verdict.
                self._cm_dirty |= t.bit
            rob.append(uop)
            if not commit_stage:
                if protocol:
                    pool = fq_pool if is_fp else iq_pool
                    p_used = pool.proto_used + 1
                    pool.proto_used = p_used
                    if p_used > pool.proto_peak:
                        pool.proto_peak = p_used
                elif is_fp:
                    fq_pool.app_used += 1
                else:
                    iq_pool.app_used += 1
                pos = self._iq_pos + 1
                self._iq_pos = pos
                uop.iq_pos = pos
                if is_mem:
                    if uop.kind is UopKind.PREFETCH:
                        self._pf_fifo.append(uop)
                    else:
                        self._mem_fifo[tid].append(uop)
                    if not uop.n_wait:
                        self._mem_ready += 1
                elif not uop.n_wait:
                    heappush(
                        self._fqr if is_fp else self._iqr, (pos, uop)
                    )
            src.popleft()
            renamed += 1
            if not src:
                return renamed
        else:
            return renamed
        # Resource bounce: latch the section (loop exited via break).
        if protocol:
            self._rn_wait_proto = code
        else:
            self._rn_wait_app = code
        return renamed

    def _commit_nt(self) -> None:
        """:meth:`_commit` over the threads whose commit verdict is open
        (``_cm_dirty``), with the application-side :meth:`_retire`
        inlined (plain app-pool arithmetic and free-list pushes, as in
        :meth:`_step_1t`'s commit).  Protocol and commit-stage µops
        take the shared :meth:`_retire` — they are rare and carry the
        commit-stage kinds (UNCACHED/LDCTXT/SWITCH) and protocol stats.

        A thread whose head cannot retire opens its stall anchor and
        drops out until an event reopens its verdict; one whose head
        can retire closes its anchor (the charge covers the cycles
        before this one) and stays open while it retires.  The retire
        loop visits the threads whose verdict is open *now*: a store
        drained by an earlier thread's retirement can complete another
        thread's head mid-loop (reopening it), and the reference loop
        retires that head in the same cycle — after charging it this
        cycle's stall, so such a thread's anchor closes at the next
        cycle.  Threads still latched are stalled and could not retire
        here either, so retirement, stall charges and finish tests all
        land on the reference's cycles.
        """
        dirty = self._cm_dirty
        cycle = self.cycle
        sb = self.sb_pool
        sb_total = sb.total
        sb_app_cap = sb_total - sb.reserved
        tp = self._tproto
        proto_port = tp.source.port if tp is not None else None
        ready = 0
        for t in self.threads:
            bit = t.bit
            if not dirty & bit:
                continue
            rob = t.rob
            if not rob:
                # Empty window: latched until a rename, a squash, or
                # fetch finding the source done reopens it — the only
                # events after which this thread can finish.
                dirty ^= bit
                if (
                    not t.protocol
                    and not t.done
                    and t.icount == 0
                    and t.source.done
                ):
                    t.done = True
                    t.stats.finish_cycle = cycle
                    t.stats.done = True
                    self._worked = True
                continue
            head = rob[0]
            if head.completed:
                ok = head.kind is not UopKind.STORE or (
                    sb.app_used + sb.proto_used
                    < (sb_total if head.protocol else sb_app_cap)
                )
            elif head.commit_stage:
                # _retirable, inlined: UNCACHED executes right at
                # retirement; SWITCH/LDCTXT graduate once the dispatch
                # unit has handed out the next request
                # (port.switch_satisfied).
                ctx = head.ctx
                ok = head.kind is UopKind.UNCACHED or (
                    ctx is not None
                    and proto_port.dispatched_count >= ctx.index + 2
                )
            else:
                ok = False
            s = t.stall_from
            if ok:
                if s:
                    if t.stall_mem:
                        t.stats.memory_stall_cycles += cycle - s
                    else:
                        t.stats.other_stall_cycles += cycle - s
                    t.stall_from = 0
                ready |= bit
            else:
                if not s:
                    t.stall_from = cycle
                    t.stall_mem = head.is_memory
                dirty ^= bit
        self._cm_dirty = dirty
        if not ready:
            return
        budget = self._commit_width
        rn = self.rename
        free_fp = rn._free_fp
        free_int = rn._free_int
        committed_any = False
        for t in self._rr_orders[(cycle - self._cycle0) % len(self.threads)]:
            if not self._cm_dirty & t.bit:
                continue
            rob = t.rob
            stats = t.stats
            before = budget
            committed = 0
            spin_committed = 0
            proto_inline = 0
            stalled = False
            while budget > 0 and rob:
                head = rob[0]
                if head.completed:
                    if head.kind is UopKind.STORE and (
                        sb.app_used + sb.proto_used
                        >= (sb_total if head.protocol else sb_app_cap)
                    ):
                        stalled = True
                        break
                elif head.commit_stage:
                    # _retirable, inlined (as in the verdict scan).
                    if head.kind is not UopKind.UNCACHED:
                        ctx = head.ctx
                        if (
                            ctx is None
                            or proto_port.dispatched_count
                            < ctx.index + 2
                        ):
                            stalled = True
                            break
                else:
                    stalled = True
                    break
                if head.commit_stage:
                    self._retire(t, head)
                    # LDCTXT graduation pumps SMTpPort.try_start, which
                    # can start the next handler's fetch.
                    self._ft_parked &= ~t.bit
                    self._busy_dirty = True
                elif head.protocol:
                    # Protocol µop, no commit-stage kind: _retire
                    # inlined with proto-side pool/register
                    # arithmetic (release is a plain decrement;
                    # sb acquire tracks the Table 9 peak).
                    self._rn_wait_app &= 1
                    self._rn_wait_proto &= 1
                    kind = head.kind
                    if kind is UopKind.STORE:
                        sbp = sb.proto_used + 1
                        sb.proto_used = sbp
                        if sbp > sb.proto_peak:
                            sb.proto_peak = sbp
                        fifo = self._sb_fifo[head.thread]
                        fifo.append(head)
                        if len(fifo) == 1:
                            self._drain_store(head)
                        stats.stores += 1
                    elif kind is UopKind.LOAD:
                        stats.loads += 1
                    if head.in_lsq:
                        self.lsq_pool.proto_used -= 1
                    if head.is_branch:
                        self.bstack_pool.proto_used -= 1
                    p = head.pdest_old
                    if p != -1:
                        if p >= 1 << 20:
                            free_fp.append(p - (1 << 20))
                        else:
                            free_int.append(p)
                            rn.proto_int_held -= 1
                    committed += 1
                    proto_inline += 1
                    if head.spin:
                        spin_committed += 1
                else:
                    # App µop: _retire inlined (no commit-stage
                    # kinds, releases as plain app-side arithmetic).
                    self._rn_wait_app &= 1
                    self._rn_wait_proto &= 1
                    kind = head.kind
                    if kind is UopKind.STORE:
                        sb.app_used += 1
                        fifo = self._sb_fifo[head.thread]
                        fifo.append(head)
                        if len(fifo) == 1:
                            self._drain_store(head)
                        stats.stores += 1
                    elif kind is UopKind.LOAD:
                        stats.loads += 1
                    if head.in_lsq:
                        self.lsq_pool.app_used -= 1
                    if head.is_branch:
                        self.bstack_pool.app_used -= 1
                    p = head.pdest_old
                    if p != -1:
                        if p >= 1 << 20:
                            free_fp.append(p - (1 << 20))
                        else:
                            free_int.append(p)
                    committed += 1
                    if head.spin:
                        spin_committed += 1
                rob.popleft()
                budget -= 1
                committed_any = True
            if committed:
                stats.committed += committed
                stats.spin_committed += spin_committed
            if proto_inline:
                self.node.stats.protocol.instructions += proto_inline
                self._busy_dirty = True
            if budget < before and t.stall_from:
                # Head completed mid-loop after this cycle's charge.
                s = t.stall_from
                if t.stall_mem:
                    stats.memory_stall_cycles += cycle + 1 - s
                else:
                    stats.other_stall_cycles += cycle + 1 - s
                t.stall_from = 0
            # Latch the verdict the next cycle's scan would reach: any
            # later change to the head reopens it.  A thread that ran
            # out of budget stays open.
            if stalled:
                if not t.stall_from:
                    t.stall_from = cycle + 1
                    t.stall_mem = rob[0].is_memory
                self._cm_dirty &= ~t.bit
            elif not rob:
                self._cm_dirty &= ~t.bit
                if (
                    not t.protocol
                    and not t.done
                    and t.icount == 0
                    and t.source.done
                ):
                    t.done = True
                    t.stats.finish_cycle = cycle
                    t.stats.done = True
                    self._worked = True
            if budget <= 0:
                break
        if committed_any:
            self._worked = True
            m = self.machine
            if m is not None:
                m._commit_cycle = m.cycle  # the watchdog's commit stamp

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetch_thread(self, t: ThreadContext, budget: int) -> int:
        while budget > 0:
            if not self.decode_q.can_push(t.protocol):
                break
            if t.wrongpath_branch is not None:
                if t.wp_emitted >= WRONG_PATH_CAP:
                    break
                uop = self._make_synth(t)
            else:
                uop = t.source.next_uop()
                if uop is None:
                    break
                if not self._icache_ok(t, uop):
                    # I-miss: the µop stays un-consumed? No — sources
                    # hand out µops destructively, so probe first.
                    # (_icache_ok fetches the line; on a miss it stalls
                    # the thread and we re-buffer the µop.)
                    self._worked = True  # the probe recorded I-side stats
                    t.source.push_back(uop)
                    break
            self._worked = True
            self._seq += 1
            uop.seq = self._seq
            budget -= 1
            t.icount += 1
            taken_redirect = False
            if uop.is_branch:
                taken_redirect = self._predict(t, uop)
            self.decode_q.push(uop, t.protocol)
            if uop.kind is UopKind.LDCTXT:
                break  # handler fetch complete; PPCV cleared by source
            if uop.mispredicted and t.wrongpath_branch is None:
                t.wrongpath_branch = uop
                t.wp_emitted = 0
                t.wp_pc = uop.pc + 4
                break
            if taken_redirect:
                break  # fetch run ends at a predicted-taken branch
        return budget

    def _fetch_thread_fast(self, t: ThreadContext, budget: int) -> int:
        """Superblock fetch for a compiled app source.

        Consumes straight-line runs between the source's memoized
        branch boundaries (``breaks``) directly off its buffer cursor,
        probing the I-cache only on a line change and handing branches
        to the shared predictor path.  Observationally identical to the
        per-µop loop in :meth:`_fetch_thread`: same µops in the same
        order, same stats, same stall/redirect points.  Only entered on
        the correct path (wrong-path fill stays on the reference loop,
        which never touches the source).
        """
        dq = self.decode_q
        room = self._dq_room - len(dq.app) - len(dq.proto)
        if room <= 0:
            return budget
        src = t.source
        buf = src.k.buffer
        i = src.pos
        n = len(buf)
        breaks = src.breaks
        b_idx = bisect_left(breaks, i)
        seq = self._seq
        line = t.cur_fetch_line
        dq_app = dq.app
        hierarchy = self.hierarchy
        limit = budget if budget < room else room
        consumed = 0
        stalled = False
        while limit > 0:
            if i >= n:
                src.pos = i
                if not src.peek_available():
                    break
                # The refill compacted the buffer: reload every local.
                buf = src.k.buffer
                i = src.pos
                n = len(buf)
                breaks = src.breaks
                b_idx = bisect_left(breaks, i)
            nb = breaks[b_idx] if b_idx < len(breaks) else n
            if i < nb:
                # Straight-line run: no branches until nb.
                end = i + limit
                if end > nb:
                    end = nb
                while i < end:
                    uop = buf[i]
                    pc_line = uop.pc >> 6
                    if pc_line != line:
                        # Line change is the rare case: build the fill
                        # callback only when a probe actually happens.
                        result = hierarchy.ifetch(
                            uop.pc, False,
                            on_complete=partial(self._ifill_done, t),
                        )
                        if result[0] != HIT:
                            t.fetch_stalled = True
                            self._worked = True  # the probe recorded stats
                            stalled = True
                            break
                        line = pc_line
                    seq += 1
                    uop.seq = seq
                    dq_app.append(uop)
                    i += 1
                    consumed += 1
                    limit -= 1
                if stalled:
                    break
                continue
            # Fetch-run boundary: one branch µop through the shared
            # predict path, then stop on a redirect exactly as the
            # reference loop does.
            uop = buf[i]
            pc_line = uop.pc >> 6
            if pc_line != line:
                result = hierarchy.ifetch(
                    uop.pc, False, on_complete=partial(self._ifill_done, t)
                )
                if result[0] != HIT:
                    t.fetch_stalled = True
                    self._worked = True
                    stalled = True
                    break
                line = pc_line
            seq += 1
            uop.seq = seq
            taken_redirect = self._predict(t, uop)
            dq_app.append(uop)
            i += 1
            b_idx += 1
            consumed += 1
            limit -= 1
            if uop.mispredicted:
                t.wrongpath_branch = uop
                t.wp_emitted = 0
                t.wp_pc = uop.pc + 4
                break
            if taken_redirect:
                break
        src.pos = i
        t.cur_fetch_line = line
        if consumed:
            self._seq = seq
            t.icount += consumed
            self._worked = True
        return budget - consumed

    def _fetch_nt(self) -> None:
        """ICOUNT(2,8) fetch for the fused multi-threaded path.

        Same candidate set and selection as :meth:`_fetch`, with the
        build-list-and-sort replaced by a single top-2 scan over the
        threads whose fetch verdict is open: the sort key ``(icount,
        not protocol)`` packs into one integer (``icount`` is
        non-negative) and strict-less-than comparisons keep the earlier
        thread on ties, exactly like the stable sort.  A thread found
        not to be a candidate for a reason of its own is parked
        (``_ft_parked``) until an event reopens it; no source refill is
        skipped by that, since a parked source is waiting, sleeping,
        done or blocked before its ``peek_available`` test, where the
        reference scan would not advance it either.  Selected threads
        fetch through :meth:`_fetch_from`.
        """
        dq = self.decode_q
        occupancy = len(dq.app) + len(dq.proto)
        app_room = occupancy < self._dq_room
        proto_room = occupancy < dq.capacity
        parked = self._ft_parked
        best = None
        second = None
        bk = sk = 0
        for t in self.threads:
            bit = t.bit
            if parked & bit:
                continue
            if t.protocol:
                if not proto_room:
                    continue
            elif not app_room:
                continue
            if t.done or t.fetch_stalled:
                parked |= bit
                continue
            if t.wrongpath_branch is not None:
                if t.wp_emitted >= WRONG_PATH_CAP:
                    parked |= bit
                    continue
            elif t.protocol:
                src = t.source
                if not src._buffer and not src.fetching:
                    parked |= bit
                    continue  # peek_available, inlined
            elif t.compiled_src:
                src = t.source
                if src.pos >= len(src.k.buffer) and (
                    # peek_available's parked fast-reject, inlined: in
                    # these states it returns False with no refill.
                    src._waiting
                    or src._sleeping
                    or src._done
                    or not src.peek_available()
                ):
                    parked |= bit
                    if src._done:
                        # The source ran out: the thread may finish.
                        self._cm_dirty |= bit
                    continue
            elif not t.source.peek_available():
                parked |= bit
                if t.source.done:
                    self._cm_dirty |= bit
                continue
            k = (t.icount << 1) | (not t.protocol)
            if best is None:
                best = t
                bk = k
            elif k < bk:
                second = best
                sk = bk
                best = t
                bk = k
            elif second is None or k < sk:
                second = t
                sk = k
        self._ft_parked = parked
        if best is None:
            return
        budget = self._fetch_from(best, self._fetch_width)
        if second is not None and budget > 0:
            self._fetch_from(second, budget)

    def _fetch_from(self, t: ThreadContext, budget: int) -> int:
        """Fetch from one selected thread through its fast loop —
        wrong-path fill, the protocol-thread loop, superblock fetch for
        compiled app sources, the reference loop for interpreted ones."""
        if t.wrongpath_branch is not None:
            return self._fetch_wrongpath(t, budget)
        if t.protocol:
            self._busy_dirty = True
            return self._fetch_thread_proto(t, budget)
        if t.compiled_src:
            return self._fetch_thread_fast(t, budget)
        return self._fetch_thread(t, budget)

    def _fetch_wrongpath(self, t: ThreadContext, budget: int) -> int:
        """Wrong-path fill: :meth:`_fetch_thread`'s synthetic branch in
        one loop.  Room, ``WRONG_PATH_CAP`` headroom and budget bound the
        fill up front; each µop comes from :meth:`_make_synth`."""
        dq = self.decode_q
        protocol = t.protocol
        room = (
            (dq.capacity if protocol else self._dq_room)
            - len(dq.app) - len(dq.proto)
        )
        n = WRONG_PATH_CAP - t.wp_emitted
        if room < n:
            n = room
        if budget < n:
            n = budget
        if n <= 0:
            return budget
        push = (dq.proto if protocol else dq.app).append
        make = self._make_synth
        seq = self._seq
        for _ in range(n):
            uop = make(t)
            seq += 1
            uop.seq = seq
            push(uop)
        t.icount += n
        self._seq = seq
        self._worked = True
        return budget - n

    def _fetch_thread_proto(self, t: ThreadContext, budget: int) -> int:
        """Correct-path fetch for the protocol thread.

        The per-µop loop of :meth:`_fetch_thread` with the source
        interface inlined for :class:`ProtocolThreadSource` — buffered
        µops off the list head, then the compiled PP engine's emit
        closure (or the reference ``_make_uop``) while a handler is
        fetching — and the I-cache probe reduced to a line-change test.
        Same µops in the same order, same stats, same stall/redirect
        points as the reference loop.
        """
        dq = self.decode_q
        room = dq.capacity - len(dq.app) - len(dq.proto)
        if room <= 0:
            return budget
        src = t.source
        buf = src._buffer
        dqp = dq.proto
        seq = self._seq
        line = t.cur_fetch_line
        hierarchy = self.hierarchy
        consumed = 0
        while budget > 0 and room > 0:
            if buf:
                uop = buf.pop(0)
            elif src.fetching:
                emit = src._emit
                uop = emit(src) if emit is not None else src._make_uop()
                if uop is None:
                    break
            else:
                break
            pc_line = uop.pc >> 6
            if pc_line != line:
                result = hierarchy.ifetch(
                    uop.pc, True, on_complete=partial(self._ifill_done, t)
                )
                if result[0] != HIT:
                    t.fetch_stalled = True
                    self._worked = True  # the probe recorded I-side stats
                    buf.insert(0, uop)  # push_back, inlined
                    break
                line = pc_line
            seq += 1
            uop.seq = seq
            budget -= 1
            room -= 1
            consumed += 1
            taken_redirect = False
            if uop.is_branch:
                taken_redirect = self._predict(t, uop)
            dqp.append(uop)
            if uop.kind is UopKind.LDCTXT:
                break  # handler fetch complete; PPCV cleared by source
            if uop.mispredicted and t.wrongpath_branch is None:
                t.wrongpath_branch = uop
                t.wp_emitted = 0
                t.wp_pc = uop.pc + 4
                break
            if taken_redirect:
                break  # fetch run ends at a predicted-taken branch
        t.cur_fetch_line = line
        if consumed:
            self._seq = seq
            t.icount += consumed
            self._worked = True
        return budget

    def _icache_ok(self, t: ThreadContext, uop: Uop) -> bool:
        line = uop.pc >> 6
        if line == t.cur_fetch_line:
            return True
        result = self.hierarchy.ifetch(
            uop.pc, t.protocol, on_complete=partial(self._ifill_done, t)
        )
        if result[0] == HIT:
            t.cur_fetch_line = line
            return True
        t.fetch_stalled = True
        return False

    def _ifill_done(self, t: ThreadContext) -> None:
        t.fetch_stalled = False
        t.cur_fetch_line = -1
        self._ft_parked &= ~t.bit
        self.wake_quiet()

    def _make_synth(self, t: ThreadContext) -> Uop:
        t.wp_emitted += 1
        t.wp_pc += 4
        # Wrong-path filler: integer ops chained through a rotating
        # logical register window, consuming rename/IQ resources.  The
        # window has 8 shapes per thread (src is a function of dest),
        # so filler µops clone from a tiny template cache.
        dest = 8 + (t.wp_emitted % 8)
        key = (t.tid, dest)
        tmpl = self._synth_tmpl.get(key)
        if tmpl is None:
            src = 8 + ((t.wp_emitted - 1) % 8)
            tmpl = self._synth_tmpl[key] = Uop(
                UopKind.SYNTH, t.tid, srcs=(src,), dest=dest,
                protocol=t.protocol,
            )
        uop = tmpl.clone()
        uop.pc = t.wp_pc
        return uop

    def _predict(self, t: ThreadContext, uop: Uop) -> bool:
        """Predict a branch; returns True when fetch redirects (predicted
        taken).  Sets ``uop.mispredicted`` from the oracle outcome."""
        t.stats.branches += 1
        if t.protocol:
            self.node.stats.protocol.branches += 1
        if uop.kind is UopKind.CALL:
            t.ras.push(uop.pc + 4)
            predicted_taken = True
            target_ok = True
        elif uop.kind is UopKind.RETURN:
            predicted = t.ras.pop()
            predicted_taken = True
            target_ok = predicted == uop.target_pc
        else:
            predicted_taken = self.predictor.predict(t.tid, uop.pc)
            if predicted_taken and self.btb.lookup(uop.pc) is None:
                predicted_taken = False  # no target available
            target_ok = True
        uop.mispredicted = (predicted_taken != uop.taken) or (
            uop.taken and not target_ok
        )
        if uop.taken:
            self.btb.install(uop.pc, uop.target_pc)
        if uop.mispredicted:
            t.stats.mispredicts += 1
            if t.protocol:
                self.node.stats.protocol.mispredicts += 1
        return predicted_taken and not uop.mispredicted

    # ------------------------------------------------------------------
    # Decode and rename
    # ------------------------------------------------------------------

    def _decode_nt(self, first_proto: int) -> None:
        """Bulk decode->rename move.

        Equivalent to :meth:`_decode_stage`: the per-µop ``can_push``
        test is monotone within one cycle (only this loop pushes), so
        the admissible count per section is computable up front and the
        µops move in one run.
        """
        dq = self.decode_q
        rq = self.rename_q
        width = self._few
        rq_occ = len(rq.proto) + len(rq.app)
        moved = 0
        sections = (True, False) if first_proto else (False, True)
        for protocol in sections:
            src = dq.proto if protocol else dq.app
            if not src:
                continue
            cap = rq.capacity if protocol else rq.capacity - rq.reserved
            take = min(len(src), width - moved, cap - rq_occ)
            if take <= 0:
                continue
            dst = rq.proto if protocol else rq.app
            pop = src.popleft
            push = dst.append
            for _ in range(take):
                push(pop())
            moved += take
            rq_occ += take
        if moved:
            self._worked = True

    def _rename_1t(self, rqa: Deque[Uop]) -> None:
        """Rename-stage loop of :meth:`_step_1t`, specialized for
        application µops: no protocol context (every pool bound is the
        app-side ``total - reserved`` and acquires are plain ``app_used``
        increments) and no commit-stage kinds (application sources never
        emit them — SYNTH wrong-path fillers are plain ALU-class µops).
        Check order and routing match :meth:`_try_rename` exactly.
        """
        t = self._t0
        rn = self.rename
        rob = t.rob
        renamed = 0
        width = self._few
        al = self._active_list
        imap = rn.int_map[t.tid]
        fmap = rn.fp_map[t.tid]
        int_ready = rn.int_ready
        fp_ready = rn.fp_ready
        waiters = rn._waiters
        free_int = rn._free_int
        free_fp = rn._free_fp
        reserved_int = rn.reserved_int
        while renamed < width:
            uop = rqa[0]
            if uop.is_fp:
                pool = self.fq_pool
                if pool.app_used >= self._fq_cap:
                    self._rn_wait = 1
                    break
            else:
                pool = self.iq_pool
                if pool.app_used >= self._iq_cap:
                    self._rn_wait = 1
                    break
            if len(rob) >= al:
                self._rn_wait = 2
                break
            dest = uop.dest
            if dest is not None:
                if dest >= FP_BASE:
                    if not free_fp:
                        self._rn_wait = 2
                        break
                elif len(free_int) <= reserved_int:
                    self._rn_wait = 2
                    break
            is_mem = uop.is_memory
            if is_mem:
                if self.lsq_pool.app_used >= self._lsq_cap:
                    self._rn_wait = 2
                    break
            if uop.is_branch:
                bp = self.bstack_pool
                if bp.app_used >= self._bs_cap:
                    self._rn_wait = 2
                    break
                bp.app_used += 1
                uop.checkpoint = rn.checkpoint(t.tid, t.ras.snapshot())
            if is_mem:
                self.lsq_pool.app_used += 1
                uop.in_lsq = True
                if uop.kind is not UopKind.PREFETCH:
                    uop.mem_seq = t.mem_seq_next
                    t.mem_seq_next += 1
            # rename.rename(uop), inlined for the app thread (no
            # protocol register accounting); one call per renamed uop
            # otherwise.
            srcs = uop.srcs
            if srcs:
                n_wait = 0
                psrcs: List[int] = []
                for s in srcs:
                    if s >= FP_BASE:
                        r = fmap[s - FP_BASE]
                        p = r + (1 << 20)
                        ready = fp_ready[r]
                    else:
                        p = imap[s]
                        ready = int_ready[p]
                    psrcs.append(p)
                    if not ready:
                        n_wait += 1
                        lst = waiters.get(p)
                        if lst is None:
                            waiters[p] = [uop]
                        else:
                            lst.append(uop)
                uop.psrcs = tuple(psrcs)
                uop.n_wait = n_wait
            else:
                uop.psrcs = ()
            if dest is not None:
                if dest >= FP_BASE:
                    preg = free_fp.pop()
                    fp_ready[preg] = False
                    uop.pdest = preg + (1 << 20)
                    uop.pdest_old = fmap[dest - FP_BASE] + (1 << 20)
                    fmap[dest - FP_BASE] = preg
                else:
                    preg = free_int.pop()
                    int_ready[preg] = False
                    uop.pdest = preg
                    uop.pdest_old = imap[dest]
                    imap[dest] = preg
            rob.append(uop)
            pool.app_used += 1
            pos = self._iq_pos + 1
            self._iq_pos = pos
            uop.iq_pos = pos
            if is_mem:
                if uop.kind is UopKind.PREFETCH:
                    self._pf_fifo.append(uop)
                else:
                    self._t0_fifo.append(uop)
                if not uop.n_wait:
                    self._mem_ready += 1
            elif not uop.n_wait:
                heappush(
                    self._fqr if uop.is_fp else self._iqr, (pos, uop)
                )
            rqa.popleft()
            renamed += 1
            if not rqa:
                break
        if renamed:
            self._worked = True

    # ------------------------------------------------------------------
    # Issue and execute
    # ------------------------------------------------------------------

    def _uop_ready(self, uop: Uop) -> None:
        """Rename-unit hook: ``uop``'s last pending source completed.

        Memory µops are issue-gated by their per-thread FIFO head scan
        (and commit-stage µops never join the window), so only waiting
        non-memory µops are admitted to the ready heaps here; memory
        µops bump the ready count that gates the FIFO scan.  The count
        is bumped even for a squashed µop so the lazy drop's
        ``n_wait == 0`` decrement always balances.
        """
        if uop.is_memory:
            self._mem_ready += 1
            return
        if uop.squashed or uop.commit_stage:
            return
        heappush(self._fqr if uop.is_fp else self._iqr, (uop.iq_pos, uop))

    def _issue_1t(self) -> None:
        """:meth:`_issue_nt`, specialized for the fused one-app-thread
        core (:meth:`_step_1t`).

        The only possible memory candidates are this thread's FIFO head
        and the oldest prefetch, so the per-thread collection walk is
        gone.  Application memory µops are never squashed — wrong-path
        fetch emits SYNTH fillers only, and SYNTH is not a memory kind —
        so the FIFO lazy squash-drops vanish too; SYNTH µops do reach
        the integer heap, so its squash test stays.  Pool releases are
        inlined for the app side (``release(False)`` is a plain
        ``app_used`` decrement).
        """
        cycle = self.cycle
        t = self._t0
        wheel = self.wheel
        wheel_heap = wheel._heap
        now = wheel.now
        mem: List[Uop] = []
        fifo = self._t0_fifo
        if fifo:
            head = fifo[0]
            if (
                not head.n_wait
                and head.mem_seq == t.mem_issue_next
                and (
                    head.kind is not UopKind.ATOMIC
                    or (t.rob and t.rob[0] is head and not self._t0_sb)
                )
            ):
                mem.append(head)
        pf = self._pf_fifo
        if pf:
            mem.append(pf[0])
            if len(mem) == 2 and mem[0].iq_pos > mem[1].iq_pos:
                mem.reverse()
        alu = 6
        iqr = self._iqr
        gated = self._gated  # persistent scratch; always left empty
        if not mem:
            while alu > 0 and iqr:
                pos, uop = heappop(iqr)
                if uop.squashed:
                    continue
                if uop.kind is UopKind.DIV:
                    if self.div_free_at > cycle:
                        self._note_unit_wake(self.div_free_at)
                        gated.append((pos, uop))
                        continue
                    self.div_free_at = cycle + self.pp.int_div_latency
                alu -= 1
                self._worked = True
                uop.issued = True
                t.icount -= 1
                self.iq_pool.app_used -= 1
                self._rn_wait = 0
                # _schedule_complete, inlined (once per issued µop).
                lat = _LAT1[uop.kind] if uop.latency == 1 else self._latency_of(uop)
                wheel._seq += 1
                heappush(
                    wheel_heap,
                    (now + lat, wheel._seq, partial(self._complete, uop, False)),
                )
        else:
            inf = 1 << 62
            agu = 1
            mi = 0
            mn = len(mem)
            while True:
                hpos = iqr[0][0] if (alu > 0 and iqr) else inf
                mpos = mem[mi].iq_pos if (agu > 0 and mi < mn) else inf
                if hpos <= mpos:
                    if hpos == inf:
                        break
                    pos, uop = heappop(iqr)
                    if uop.squashed:
                        continue
                    if uop.kind is UopKind.DIV:
                        if self.div_free_at > cycle:
                            self._note_unit_wake(self.div_free_at)
                            gated.append((pos, uop))
                            continue
                        self.div_free_at = cycle + self.pp.int_div_latency
                    alu -= 1
                    self._worked = True
                    uop.issued = True
                    t.icount -= 1
                    self.iq_pool.app_used -= 1
                    self._rn_wait = 0
                    lat = (_LAT1[uop.kind] if uop.latency == 1
                           else self._latency_of(uop))
                    wheel._seq += 1
                    heappush(
                        wheel_heap,
                        (now + lat, wheel._seq,
                         partial(self._complete, uop, False)),
                    )
                else:
                    uop = mem[mi]
                    mi += 1
                    # Even a BLOCKED attempt records hierarchy stats, so
                    # an issuable memory µop keeps the core awake.
                    self._worked = True
                    if self._issue_mem(uop):
                        agu -= 1
                        uop.issued = True
                        t.icount -= 1
                        self.iq_pool.app_used -= 1
                        self._rn_wait = 0
                        if uop.kind is UopKind.PREFETCH:
                            pf.popleft()
                        else:
                            fifo.popleft()
                        self._mem_ready -= 1  # an issued head was ready
        if gated:
            for entry in gated:
                heappush(iqr, entry)
            del gated[:]
        fqr = self._fqr
        if fqr:
            fpu = 3
            while fpu > 0 and fqr:
                pos, uop = heappop(fqr)
                if uop.squashed:
                    continue
                if uop.kind is UopKind.FDIV:
                    if self.fdiv_free_at > cycle:
                        self._note_unit_wake(self.fdiv_free_at)
                        gated.append((pos, uop))
                        continue
                    self.fdiv_free_at = cycle + self.pp.fp_div_dp_latency
                fpu -= 1
                self._worked = True
                uop.issued = True
                t.icount -= 1
                self.fq_pool.app_used -= 1
                self._rn_wait = 0
                lat = (_LAT1[uop.kind] if uop.latency == 1
                       else self._latency_of(uop))
                wheel._seq += 1
                heappush(
                    wheel_heap,
                    (now + lat, wheel._seq,
                     partial(self._complete, uop, False)),
                )
            if gated:
                for entry in gated:
                    heappush(fqr, entry)
                del gated[:]

    def _issue_nt(self) -> None:
        """Fused issue: process only actionable µops, in the exact
        order the reference :meth:`_issue` scan would reach them.

        Candidates and their order are fixed at entry: completions are
        wheel-scheduled at least one cycle out and active-memory
        requests are asynchronous, so nothing becomes ready mid-scan;
        with one AGU a successful memory issue cannot enable a second
        same-thread candidate within the cycle.  Memory candidates are
        the per-thread FIFO heads (an older un-issued access always
        blocks younger ones via ``mem_issue_next``) plus the oldest
        prefetch; they interleave with the ready-heap µops by admission
        order, mirroring the reference's single-list walk, and a
        BLOCKED attempt leaves the head in place to retry — and mutate
        hierarchy stats — every cycle, exactly like the kept-list scan.

        Per-issue bookkeeping is inlined: completion scheduling as a
        direct wheel-heap push (:meth:`_schedule_complete` flattened),
        pool releases as plain used-counter arithmetic, and every issue
        clearing the rename-stall latches (an issue frees an IQ/FQ
        slot, so a latched rename head may now succeed).
        """
        cycle = self.cycle
        threads = self.threads
        wheel = self.wheel
        wheel_heap = wheel._heap
        now = wheel.now
        iq_pool = self.iq_pool
        # -- collect memory candidates --------------------------------
        mem: List[Uop] = []
        if self._mem_ready:
            sb_fifo = self._sb_fifo
            for tid, fifo in self._mem_items:
                while fifo and fifo[0].squashed:
                    if not fifo[0].n_wait:
                        self._mem_ready -= 1
                    fifo.popleft()
                if not fifo:
                    continue
                head = fifo[0]
                if head.n_wait:
                    continue
                t = threads[tid]
                if head.mem_seq != t.mem_issue_next:
                    continue
                if head.kind is UopKind.ATOMIC and not (
                    t.rob and t.rob[0] is head and not sb_fifo[tid]
                ):
                    continue
                mem.append(head)
            pf = self._pf_fifo
            while pf and pf[0].squashed:
                self._mem_ready -= 1  # prefetches are always ready
                pf.popleft()
            if pf:
                mem.append(pf[0])
            if len(mem) == 2:
                if mem[0].iq_pos > mem[1].iq_pos:
                    mem.reverse()
            elif len(mem) > 2:
                mem.sort(key=attrgetter("iq_pos"))
        # -- integer + memory, merged in admission order ---------------
        alu = 6
        iqr = self._iqr
        gated = self._gated  # persistent scratch; always left empty
        if not mem:
            while alu > 0 and iqr:
                pos, uop = heappop(iqr)
                if uop.squashed:
                    continue
                if uop.kind is UopKind.DIV:
                    if self.div_free_at > cycle:
                        self._note_unit_wake(self.div_free_at)
                        gated.append((pos, uop))
                        continue
                    self.div_free_at = cycle + self.pp.int_div_latency
                alu -= 1
                self._worked = True
                uop.issued = True
                threads[uop.thread].icount -= 1
                if uop.protocol:
                    iq_pool.proto_used -= 1
                else:
                    iq_pool.app_used -= 1
                self._rn_wait_app = 0
                self._rn_wait_proto = 0
                lat = (_LAT1[uop.kind] if uop.latency == 1
                       else self._latency_of(uop))
                wheel._seq += 1
                heappush(
                    wheel_heap,
                    (now + lat, wheel._seq,
                     partial(self._complete, uop, False)),
                )
        else:
            inf = 1 << 62
            agu = 1
            mi = 0
            mn = len(mem)
            while True:
                hpos = iqr[0][0] if (alu > 0 and iqr) else inf
                mpos = mem[mi].iq_pos if (agu > 0 and mi < mn) else inf
                if hpos <= mpos:
                    if hpos == inf:
                        break
                    pos, uop = heappop(iqr)
                    if uop.squashed:
                        continue
                    if uop.kind is UopKind.DIV:
                        if self.div_free_at > cycle:
                            self._note_unit_wake(self.div_free_at)
                            gated.append((pos, uop))
                            continue
                        self.div_free_at = cycle + self.pp.int_div_latency
                    alu -= 1
                    self._worked = True
                    uop.issued = True
                    threads[uop.thread].icount -= 1
                    if uop.protocol:
                        iq_pool.proto_used -= 1
                    else:
                        iq_pool.app_used -= 1
                    self._rn_wait_app = 0
                    self._rn_wait_proto = 0
                    lat = (_LAT1[uop.kind] if uop.latency == 1
                           else self._latency_of(uop))
                    wheel._seq += 1
                    heappush(
                        wheel_heap,
                        (now + lat, wheel._seq,
                         partial(self._complete, uop, False)),
                    )
                else:
                    uop = mem[mi]
                    mi += 1
                    # Even a BLOCKED attempt records hierarchy stats, so
                    # an issuable memory µop keeps the core awake.
                    self._worked = True
                    if self._issue_mem(uop):
                        agu -= 1
                        uop.issued = True
                        threads[uop.thread].icount -= 1
                        if uop.protocol:
                            iq_pool.proto_used -= 1
                        else:
                            iq_pool.app_used -= 1
                        self._rn_wait_app = 0
                        self._rn_wait_proto = 0
                        if uop.kind is UopKind.PREFETCH:
                            self._pf_fifo.popleft()
                        else:
                            self._mem_fifo[uop.thread].popleft()
                        self._mem_ready -= 1  # an issued head was ready
        if gated:
            for entry in gated:
                heappush(iqr, entry)
            del gated[:]
        # -- floating point -------------------------------------------
        fqr = self._fqr
        if fqr:
            fpu = 3
            fq_pool = self.fq_pool
            while fpu > 0 and fqr:
                pos, uop = heappop(fqr)
                if uop.squashed:
                    continue
                if uop.kind is UopKind.FDIV:
                    if self.fdiv_free_at > cycle:
                        self._note_unit_wake(self.fdiv_free_at)
                        gated.append((pos, uop))
                        continue
                    self.fdiv_free_at = cycle + self.pp.fp_div_dp_latency
                fpu -= 1
                self._worked = True
                uop.issued = True
                threads[uop.thread].icount -= 1
                if uop.protocol:
                    fq_pool.proto_used -= 1
                else:
                    fq_pool.app_used -= 1
                self._rn_wait_app = 0
                self._rn_wait_proto = 0
                lat = (_LAT1[uop.kind] if uop.latency == 1
                       else self._latency_of(uop))
                wheel._seq += 1
                heappush(
                    wheel_heap,
                    (now + lat, wheel._seq,
                     partial(self._complete, uop, False)),
                )
            if gated:
                for entry in gated:
                    heappush(fqr, entry)
                del gated[:]

    def _latency_of(self, uop: Uop) -> int:
        base = _EXEC_LATENCY.get(uop.kind, uop.latency)
        if uop.latency > 1 and uop.kind is UopKind.ALU:
            base = uop.latency  # e.g. slow POPC/CTZ ablation
        return READ_STAGES + base

    def _issue_mem(self, uop: Uop) -> bool:
        t = self.threads[uop.thread]
        if uop.kind is UopKind.PREFETCH:
            self.hierarchy.prefetch(uop.addr, uop.exclusive)
            t.stats.prefetches += 1
            self._schedule_complete(uop, READ_STAGES + 1)
            return True
        if uop.kind is UopKind.STORE:
            # Address resolution only; data goes to memory post-commit.
            word = uop.addr & ~7
            self._pending_stores.setdefault((uop.thread, word), []).append(
                uop.value if uop.value is not None else 0
            )
            t.mem_issue_next += 1
            self._schedule_complete(uop, READ_STAGES + 1)
            return True
        if uop.kind is UopKind.ATOMIC:
            if uop.atomic_op in AM_OPS:
                # Active-memory extension: uncached remote op at home.
                self.node.mc.am_request(
                    uop.addr, AM_OPS[uop.atomic_op], uop.operand,
                    partial(self._mem_value_done, uop),
                )
                t.mem_issue_next += 1
                return True
            result = self.hierarchy.atomic(
                uop.addr, uop.atomic_op, uop.operand,
                on_complete=partial(self._mem_value_done, uop),
            )
            if result[0] == BLOCKED:
                return False
            t.mem_issue_next += 1
            if result[0] == HIT:
                uop.result_value = result[2]
                self._schedule_complete(uop, READ_STAGES + result[1], carry_value=True)
            return True
        # LOAD: same-thread store forwarding first.
        word = uop.addr & ~7
        pending = self._pending_stores.get((uop.thread, word))
        if pending:
            uop.result_value = pending[-1]
            t.mem_issue_next += 1
            self._schedule_complete(uop, READ_STAGES + 2, carry_value=True)
            return True
        result = self.hierarchy.load(
            uop.addr, uop.protocol,
            on_complete=partial(self._mem_value_done, uop),
        )
        if result[0] == BLOCKED:
            return False
        t.mem_issue_next += 1
        if result[0] == HIT:
            uop.result_value = result[2]
            self._schedule_complete(uop, READ_STAGES + result[1], carry_value=True)
        return True

    def _mem_value_done(self, uop: Uop, value: int) -> None:
        """A miss completed (callback from the memory system)."""
        uop.result_value = value
        self._complete(uop, carry_value=True)

    def _schedule_complete(self, uop: Uop, latency: int, carry_value: bool = False) -> None:
        # wheel.schedule(max(1, latency), ...), with the wrapper calls
        # flattened — this runs once per issued µop.
        wheel = self.wheel
        wheel._seq += 1
        heappush(
            wheel._heap,
            (
                wheel.now + (latency if latency > 1 else 1),
                wheel._seq,
                partial(self._complete, uop, carry_value),
            ),
        )

    def _complete(self, uop: Uop, carry_value: bool = False) -> None:
        self._wake_flag = True
        # Only a completion of a thread's *window head* can change its
        # commit verdict (commit examines heads only); its fetch verdict
        # only changes on the value-carrying path (a load value can
        # unpark its source) or a mispredict squash (_resolve_branch).
        rob = self.threads[uop.thread].rob
        if rob and rob[0] is uop:
            self._cm_dirty |= 1 << uop.thread
        if self._asleep:
            # wake_quiet(), inlined: rejoin the machine's active set.
            self._asleep = False
            m = self.machine
            if m is not None:
                m._cores_dirty = True
        if uop.squashed or uop.completed:
            return
        uop.completed = True
        preg = uop.pdest
        if preg != -1:
            # rename.mark_ready, inlined (once per completed µop).
            rn = self.rename
            if preg >= 1 << 20:
                rn.fp_ready[preg - (1 << 20)] = True
            else:
                rn.int_ready[preg] = True
            lst = rn._waiters.pop(preg, None)
            if lst is not None:
                cb = rn.on_ready
                if cb is None:
                    for u in lst:
                        u.n_wait -= 1
                else:
                    for u in lst:
                        n = u.n_wait - 1
                        u.n_wait = n
                        # Fire only on the decrement that completes the
                        # last dependence (repeated sources appear twice).
                        if n == 0:
                            cb(u)
        if uop.is_branch:
            self._resolve_branch(uop)
        if carry_value and uop.on_value is not None:
            self._ft_parked &= ~(1 << uop.thread)
            uop.on_value(uop.result_value)

    # ------------------------------------------------------------------
    # Branch resolution and recovery
    # ------------------------------------------------------------------

    def _resolve_branch(self, uop: Uop) -> None:
        if uop.kind is UopKind.BRANCH:
            self.predictor.update(uop.thread, uop.pc, uop.taken)
        if not uop.mispredicted:
            return
        # The front-end flush below can remove the stalled rename-queue
        # head itself (a new head may rename without anything freeing).
        self._rn_wait = 0
        self._rn_wait_app = 0
        self._rn_wait_proto = 0
        t = self.threads[uop.thread]
        # Squash changes the thread's front-end occupancy, wrong-path
        # state and window: reopen both of its verdicts.
        self._cm_dirty |= t.bit
        self._ft_parked &= ~t.bit
        if t.protocol:
            self._busy_dirty = True
        squashed_any = False
        while t.rob and t.rob[-1] is not uop:
            victim = t.rob.pop()
            self._squash(victim)
            squashed_any = True
        # Front-end squash: wrong-path µops still sitting in the decode
        # or rename queues are flushed too (they own no registers or
        # window slots yet — only ICOUNT).  One filtering pass per
        # section, squashing in queue order.
        tid = t.tid
        seq = uop.seq
        for q in (self.decode_q, self.rename_q):
            section = q.proto if t.protocol else q.app
            if not section:
                continue
            keep = []
            flushed = 0
            for queued in section:
                if queued.thread == tid and queued.seq > seq:
                    queued.squashed = True
                    flushed += 1
                else:
                    keep.append(queued)
            if flushed:
                section.clear()
                section.extend(keep)
                t.icount -= flushed
                t.stats.squashed += flushed
                if t.protocol:
                    self.node.stats.protocol.squashed += flushed
                squashed_any = True
        self.rename.restore(uop.checkpoint)
        t.ras.repair(uop.checkpoint.ras_snap)
        t.wrongpath_branch = None
        t.cur_fetch_line = -1  # refetch redirects the I-stream
        if squashed_any and t.protocol:
            self.node.stats.protocol.squash_cycles += 1

    def _squash(self, victim: Uop) -> None:
        self._rn_wait = 0  # the victim's resources come back
        self._rn_wait_app = 0
        self._rn_wait_proto = 0
        victim.squashed = True
        t = self.threads[victim.thread]
        t.stats.squashed += 1
        if t.protocol:
            self.node.stats.protocol.squashed += 1
        if not victim.issued and not victim.commit_stage:
            t.icount -= 1
            pool = self.fq_pool if victim.is_fp else self.iq_pool
            pool.release(victim.protocol)
        elif victim.commit_stage:
            t.icount -= 1
        if victim.in_lsq:
            self.lsq_pool.release(victim.protocol)
            if victim.mem_seq >= 0:
                t.mem_seq_next = min(t.mem_seq_next, victim.mem_seq)
        if victim.is_branch:
            self.bstack_pool.release(victim.protocol)
        self.rename.squash_free(victim)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _retirable(self, uop: Uop) -> bool:
        if uop.commit_stage:
            if uop.kind in (UopKind.SWITCH, UopKind.LDCTXT):
                return uop.ctx is not None and self.threads[
                    uop.thread
                ].source.next_ctx_available(uop.ctx)
            return True  # UNCACHED executes right at retirement
        if uop.kind is UopKind.STORE:
            return uop.completed and self.sb_pool.can_acquire(uop.protocol)
        return uop.completed

    def _retire(self, t: ThreadContext, uop: Uop) -> None:
        # Retirement frees window/register/LSQ/branch-stack resources,
        # but no issue-queue slot: code 1 stays latched.
        self._rn_wait &= 1
        self._rn_wait_app &= 1
        self._rn_wait_proto &= 1
        if uop.commit_stage:
            t.icount -= 1  # commit-stage µops never joined the IQ
            if uop.kind is UopKind.UNCACHED:
                self.node.mc.uncached_op(uop.ctx, uop.pinstr, uop.value or 0)
            elif uop.kind is UopKind.LDCTXT:
                if uop.pdest != -1:
                    self.rename.mark_ready(uop.pdest)
                t.source.handler_committed(uop.ctx)
            else:  # SWITCH
                if uop.pdest != -1:
                    self.rename.mark_ready(uop.pdest)
        if uop.kind is UopKind.STORE:
            self.sb_pool.acquire(uop.protocol)
            fifo = self._sb_fifo[uop.thread]
            fifo.append(uop)
            if len(fifo) == 1:
                self._drain_store(uop)
        if uop.in_lsq:
            self.lsq_pool.release(uop.protocol)
        if uop.is_branch:
            self.bstack_pool.release(uop.protocol)
        self.rename.commit_free(uop)
        t.stats.committed += 1
        if uop.spin:
            t.stats.spin_committed += 1
        if t.protocol:
            self.node.stats.protocol.instructions += 1
        if uop.kind is UopKind.LOAD:
            t.stats.loads += 1
        elif uop.kind is UopKind.STORE:
            t.stats.stores += 1

    def _drain_store(self, uop: Uop) -> None:
        self.wake_quiet()
        result = self.hierarchy.store(
            uop.addr, uop.protocol, uop.value,
            on_complete=partial(self._store_drained, uop),
        )
        if result[0] == BLOCKED:
            self.wheel.schedule(2, partial(self._drain_store, uop))
            return
        if result[0] == HIT:
            self.wheel.schedule(result[1], partial(self._store_drained, uop))

    def _store_drained(self, uop: Uop, _value: Optional[int] = None) -> None:
        # Store-buffer release: an sb-blocked STORE head may now
        # retire; the fetch candidate set is untouched.
        self._wake_flag = True
        self._cm_dirty = self._t_all
        if self._asleep:
            self._asleep = False
            m = self.machine
            if m is not None:
                m._cores_dirty = True
        self.sb_pool.release(uop.protocol)
        word = uop.addr & ~7
        pending = self._pending_stores.get((uop.thread, word))
        if pending:
            pending.pop(0)
            if not pending:
                del self._pending_stores[(uop.thread, word)]
        fifo = self._sb_fifo[uop.thread]
        if fifo and fifo[0] is uop:
            fifo.popleft()
            if fifo:
                self._drain_store(fifo[0])

    # ------------------------------------------------------------------
    # Table 9 sampling hook
    # ------------------------------------------------------------------

    def sample_protocol_peaks(self) -> None:
        peaks = self.node.stats.peaks
        peaks.branch_stack = max(peaks.branch_stack, self.bstack_pool.proto_peak)
        peaks.int_regs = max(peaks.int_regs, self.rename.proto_int_peak)
        peaks.int_queue = max(peaks.int_queue, self.iq_pool.proto_peak)
        peaks.lsq = max(peaks.lsq, self.lsq_pool.proto_peak)
