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
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.apps.compile import app_interp_forced
from repro.caches.hierarchy import BLOCKED, HIT, MISS
from repro.common.params import ProcessorParams
from repro.common.queues import DualQueue, ReservedPool
from repro.common.stats import ThreadStats
from repro.isa.uop import FP_BASE, Uop, UopKind
from repro.pipeline.branch import BTB, ReturnAddressStack, TournamentPredictor
from repro.pipeline.regfile import RenameUnit
from repro.protocol.extensions import AM_OPS

#: Extra cycles from issue to execute (the two register-read stages).
READ_STAGES = 2
#: Synthetic wrong-path µop cap per mispredict (resource back-pressure
#: throttles well before this).
WRONG_PATH_CAP = 64
#: Threads fetched per cycle: the "2" of ICOUNT(2,8).
FETCH_THREADS = 2

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
    )

    def __init__(self, tid: int, source, protocol: bool, stats: ThreadStats) -> None:
        self.tid = tid
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


class SMTCore:
    def __init__(self, node, sources: List, proto_source=None) -> None:
        """``sources`` are the application thread programs; the optional
        ``proto_source`` is the protocol-thread shadow interpreter."""
        self.node = node
        self.pp: ProcessorParams = node.mp.proc
        self.hierarchy = node.hierarchy
        self.wheel = node.wheel
        self.machine = None  # set by the machine for progress notes

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
        self._rr = 0
        self.cycle = 0
        # Static-parameter and thread-subset caches for the per-cycle
        # stages (two attribute loads each on the reference path).
        self._active_list = pp.active_list_per_thread
        self._few = pp.front_end_width
        self._commit_width = pp.commit_width
        self._fetch_width = pp.fetch_width
        self._app_threads = [t for t in self.threads if not t.protocol]
        self.div_free_at = 0
        self.fdiv_free_at = 0
        # Activity contract (see DESIGN.md): ``_worked`` records whether
        # the last step changed any state that per-cycle polling could
        # not replay analytically; ``_wake_flag`` is set by asynchronous
        # completion paths (wheel callbacks, MC dispatch, MSHR frees) to
        # force the next step to run densely; ``_unit_wake`` is the
        # earliest cycle a busy div/fdiv unit frees while gating an
        # otherwise-ready µop (a timed sleep).
        self._worked = True
        self._wake_flag = True
        self._unit_wake = 0
        # Out of the machine's active set (active-set scheduler): set
        # by Machine._event_step when idle with no pending unit wake,
        # cleared by wake().  While True the machine pays nothing per
        # cycle for this core.
        self._asleep = False
        # Cached idle fixup (see fast_forward); invalidated by any step.
        self._ff_plan: Optional[list] = None
        # First skipped cycle of the current sleep period.  While
        # ``_ff_plan`` is pinned the owed fixup count is just
        # ``wheel.now - _ff_anchor`` (the plan is constant per sleep
        # period), so the event loop does no per-cycle bookkeeping at
        # all for a sleeping core (see flush_idle_fixup).
        self._ff_anchor = 0
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
        # Quiet-stage latches for _step_nt.  In a stall-only cycle the
        # commit scan's outcome (which threads charge which stall
        # counter, no head retirable) and the fetch scan's no-candidate
        # verdict are pure functions of state that only changes through
        # wake()/_complete() events or this core's own retire/rename/
        # squash work — every such site clears the latches, so the
        # ~70% of awake cycles that neither retire nor fetch shrink to
        # a few counter bumps.
        self._cm_stall: Optional[List[Tuple[ThreadStats, bool]]] = None
        self._fetch_idle = False

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
    def wake(self) -> None:
        """Asynchronous input state changed: step densely next cycle.

        Called by MSHR frees, bypass-buffer fills, thread-program sleep
        expiry, handler dispatch, and the core's own completion events.
        A spurious wake costs one dense no-op step and is always safe;
        a missed one is what the conservative ``_worked`` accounting in
        :meth:`step` guards against.
        """
        self._wake_flag = True
        self._cm_stall = None
        self._fetch_idle = False
        if self._asleep:
            # Rejoin the machine's active set (active-set scheduler).
            self._asleep = False
            m = self.machine
            if m is not None:
                m._cores_dirty = True

    def wake_fetch(self) -> None:
        """:meth:`wake` for events that can only create fetch
        candidates (thread-program sleep expiry / sync unpark): the
        commit scan's cached stall verdict still holds."""
        self._wake_flag = True
        self._fetch_idle = False
        if self._asleep:
            self._asleep = False
            m = self.machine
            if m is not None:
                m._cores_dirty = True

    def wake_quiet(self) -> None:
        """:meth:`wake` for pure progress pokes (MSHR frees, bypass
        fills): they unblock deferred *issue* retries, which touch
        neither the commit heads nor the fetch candidate set — any
        state change they lead to arrives later via
        :meth:`_complete`."""
        self._wake_flag = True
        if self._asleep:
            self._asleep = False
            m = self.machine
            if m is not None:
                m._cores_dirty = True

    def fast_forward(self, skipped: int) -> None:
        """Replay ``skipped`` idle steps' per-cycle side effects.

        Only valid when the previous step reported no work: with frozen
        inputs a dense step then mutates nothing but the stall-cycle
        and protocol-busy counters (linear in cycles), the commit
        round-robin pointer, and the decode/rename section-priority
        toggles — all replayed here in closed form.

        The counter targets are computed once per sleep period: port
        idleness and ROB-head retirability can only change through this
        core's own work or through an input change, and every input
        change fires :meth:`wake`, which forces a dense :meth:`step`
        (invalidating the cached plan) before the next fast-forward.
        """
        plan = self._ff_plan
        if plan is None:
            plan = self._ff_plan = self._build_ff_plan()
        for stats, attr in plan:
            setattr(stats, attr, getattr(stats, attr) + skipped)
        self._rr = (self._rr + skipped) % len(self.threads)
        if skipped & 1:
            self.decode_q._proto_first = not self.decode_q._proto_first
            self.rename_q._proto_first = not self.rename_q._proto_first

    def flush_idle_fixup(self, through: bool = False) -> None:
        """Apply the sleep period's batched idle-cycle fixups.

        The event loop does not call :meth:`fast_forward` once per
        skipped cycle; it pins ``_ff_plan`` and ``_ff_anchor`` at sleep
        start (when the inputs froze) and the owed count is derived
        from the clock here in one shot — immediately before the next
        dense step or a stats read.  Since the fixup is linear in
        cycles and the plan is constant for the whole sleep period, one
        n-cycle application is identical to n unit ones.

        ``through=False`` (a core about to step at ``wheel.now``): the
        core skipped ``[_ff_anchor, wheel.now - 1]``.  ``through=True``
        (an end-of-run or stats flush, no step at ``wheel.now``): the
        current cycle was skipped too.
        """
        if self._ff_plan is None:
            return
        pending = self.wheel.now - self._ff_anchor + (1 if through else 0)
        if pending > 0:
            self.fast_forward(pending)
            m = self.machine
            if m is not None:
                m.skipped_core_steps += pending
        self._ff_plan = None
        if through and self._asleep:
            # Mid-sleep stats flush (collect_stats / end of a run
            # loop): the machine's event loop no longer visits this
            # core, so re-pin the plan here — inputs are still frozen,
            # the rebuilt plan equals the one just flushed — or the
            # sleep period's remaining idle cycles would go unaccounted.
            self._ff_plan = self._build_ff_plan()
            self._ff_anchor = self.wheel.now + 1

    def _build_ff_plan(self) -> list:
        """The per-idle-cycle counter increments, as (object, attribute)
        pairs — frozen for the duration of one sleep period."""
        plan = []
        if self.proto_tid >= 0:
            port = self.threads[self.proto_tid].source.port
            if port is not None and not port.idle():
                plan.append((self.node.stats.protocol, "busy_cycles"))
        for t in self.threads:
            if t.rob and not self._retirable(t.rob[0]):
                if t.rob[0].is_memory:
                    plan.append((t.stats, "memory_stall_cycles"))
                else:
                    plan.append((t.stats, "other_stall_cycles"))
        return plan

    def _note_unit_wake(self, free_at: int) -> None:
        if self._unit_wake == 0 or free_at < self._unit_wake:
            self._unit_wake = free_at

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the core one cycle.

        Dispatches to the fused path chosen at construction —
        :meth:`_step_1t` for one compiled application thread,
        :meth:`_step_nt` for every other core — or, under
        ``REPRO_APP_INTERP=1``, runs the plain-scan reference below:
        the executable specification every fused path is
        differentially tested against.
        """
        if self._use_1t:
            self._step_1t()
            return
        if self._use_nt:
            self._step_nt()
            return
        if self._ff_plan is not None:
            self.flush_idle_fixup()
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
        parity is not toggled — it only arbitrates between the app and
        protocol sections and the protocol section does not exist here.
        Application sources never produce commit-stage µops, so head
        retirability reduces to ``completed`` (+ store-buffer room for
        stores).
        """
        if self._ff_plan is not None:
            self.flush_idle_fixup()
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
                    m._progress_cycle = m.cycle  # note_progress, inlined
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
                    self._fetch_thread(t, self._fetch_width)
            elif t.source.peek_available():
                self._fetch_thread_fast(t, self._fetch_width)

    def _step_nt(self) -> None:
        """:meth:`step`, fused for every core :meth:`_step_1t` does not
        take — SMTp cores (application thread(s) + protocol thread),
        ways>=2 cells, and one-context cores fed by an interpreted
        source or holding only the protocol thread.

        Observationally identical to the reference :meth:`step`: same
        stage order, same per-cycle side effects (stall counters,
        section-priority parity), same ``_worked``/``_unit_wake``
        accounting.  The stage bodies are the fused forms:
        :meth:`_commit_nt` (retire loop with the app-side
        :meth:`_retire` inlined), :meth:`_issue_nt` (the ready-heap
        issue window), an inline rename loop gated by *per-section*
        stall latches (the two-section generalization of
        ``_rn_wait``), and :meth:`_fetch_nt` (ICOUNT selection without
        the sort, fetching through the superblock/compiled-PP fast
        loops).
        """
        if self._ff_plan is not None:
            self.flush_idle_fixup()
        self.cycle = self.wheel.now
        self._worked = self._wake_flag
        self._wake_flag = False
        self._unit_wake = 0
        tp = self._tproto
        if tp is not None:
            src = tp.source
            port = src.port
            if port is not None:
                # port.idle() inlined (Table 7): the protocol thread is
                # "active" while a handler has effects in flight; a
                # SWITCH idling at the head waiting for traffic does
                # not count.
                if port.pending is not None or src.fetching or src._buffer:
                    self.node.stats.protocol.busy_cycles += 1
                else:
                    for u in tp.rob:
                        k = u.kind
                        if k is not UopKind.SWITCH and k is not UopKind.LDCTXT:
                            self.node.stats.protocol.busy_cycles += 1
                            break
        self._commit_nt()
        if self._iqr or self._fqr or self._mem_ready:
            self._issue_nt()
        # -- rename (per-section stall latches) ------------------------
        rq = self.rename_q
        first_proto = rq._proto_first
        rq._proto_first = not first_proto
        rqp = rq.proto
        rqa = rq.app
        if rqp or rqa:
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
                renamed += self._rename_nt(src, protocol, width - renamed)
                if renamed >= width:
                    break
            if renamed:
                self._worked = True
        # -- decode ----------------------------------------------------
        dq = self.decode_q
        if dq.proto or dq.app:
            self._decode_nt()
            # Decode may have freed decode-queue room: a fetch scan
            # latched on a full queue must re-run.
            self._fetch_idle = False
        else:
            dq._proto_first = not dq._proto_first
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
                # A new head appears on an empty window: the commit
                # scan's cached stall verdict no longer holds.
                self._cm_stall = None
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
        """:meth:`_commit` with the application-side :meth:`_retire`
        inlined (plain app-pool arithmetic and free-list pushes, as in
        :meth:`_step_1t`'s commit).  Protocol and commit-stage µops
        take the shared :meth:`_retire` — they are rare and carry the
        commit-stage kinds (UNCACHED/LDCTXT/SWITCH) and protocol stats.
        """
        threads = self.threads
        cache = self._cm_stall
        if cache is not None:
            # Stall-only fast path: since the cache was built, no event
            # that could change any head's retirability has fired (see
            # the latch contract in __init__), so the scan's outcome is
            # the same per-thread stall charges, no head ready.
            for stats, mem in cache:
                if mem:
                    stats.memory_stall_cycles += 1
                else:
                    stats.other_stall_cycles += 1
            self._rr = (self._rr + 1) % len(threads)
            for t in self._app_threads:
                if not t.done and not t.rob and t.icount == 0 and t.source.done:
                    t.done = True
                    t.stats.finish_cycle = self.cycle
                    t.stats.done = True
                    self._worked = True
            return
        sb = self.sb_pool
        sb_total = sb.total
        sb_app_cap = sb_total - sb.reserved
        tp = self._tproto
        proto_port = tp.source.port if tp is not None else None
        any_ready = False
        stalls: List[Tuple[ThreadStats, bool]] = []
        for t in threads:
            rob = t.rob
            if rob:
                head = rob[0]
                if head.completed:
                    if head.kind is not UopKind.STORE or (
                        sb.app_used + sb.proto_used
                        < (sb_total if head.protocol else sb_app_cap)
                    ):
                        any_ready = True
                        continue
                elif head.commit_stage:
                    # _retirable, inlined: UNCACHED executes right at
                    # retirement; SWITCH/LDCTXT graduate once the
                    # dispatch unit has handed out the next request
                    # (port.switch_satisfied).
                    if head.kind is UopKind.UNCACHED:
                        any_ready = True
                        continue
                    ctx = head.ctx
                    if (
                        ctx is not None
                        and proto_port.dispatched_count >= ctx.index + 2
                    ):
                        any_ready = True
                        continue
                if head.is_memory:
                    t.stats.memory_stall_cycles += 1
                    stalls.append((t.stats, True))
                else:
                    t.stats.other_stall_cycles += 1
                    stalls.append((t.stats, False))
        if not any_ready:
            self._cm_stall = stalls
        n = len(threads)
        committed_any = False
        if any_ready:
            # Retires can create fetch candidates (SWITCH/LDCTXT
            # graduation pumps try_start; icount drops; threads finish).
            self._fetch_idle = False
            budget = self._commit_width
            rr = self._rr
            rn = self.rename
            free_fp = rn._free_fp
            free_int = rn._free_int
            for i in range(n):
                t = threads[(rr + i) % n]
                rob = t.rob
                if not rob:
                    continue
                stats = t.stats
                committed = 0
                spin_committed = 0
                proto_inline = 0
                while budget > 0 and rob:
                    head = rob[0]
                    if head.completed:
                        if head.kind is UopKind.STORE and (
                            sb.app_used + sb.proto_used
                            >= (sb_total if head.protocol else sb_app_cap)
                        ):
                            break
                    elif head.commit_stage:
                        # _retirable, inlined (as in the stall scan).
                        if head.kind is not UopKind.UNCACHED:
                            ctx = head.ctx
                            if (
                                ctx is None
                                or proto_port.dispatched_count
                                < ctx.index + 2
                            ):
                                break
                    else:
                        break
                    if head.commit_stage:
                        self._retire(t, head)
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
                if budget <= 0:
                    break
        self._rr = (self._rr + 1) % n
        if committed_any:
            self._worked = True
            m = self.machine
            if m is not None:
                m._progress_cycle = m.cycle  # note_progress, inlined
        for t in self._app_threads:
            if not t.done and not t.rob and t.icount == 0 and t.source.done:
                t.done = True
                t.stats.finish_cycle = self.cycle
                t.stats.done = True
                self._worked = True

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetchable(self, t: ThreadContext) -> bool:
        if t.done or t.fetch_stalled:
            return False
        if t.wrongpath_branch is not None:
            return t.wp_emitted < WRONG_PATH_CAP
        return t.source.peek_available()

    def _fetch(self) -> None:
        # ICOUNT(2,8).  Threads whose decode-queue section is full are
        # not candidates (they would waste a fetch slot), and ICOUNT
        # ties break toward the protocol thread — together with the
        # reserved decode slot this guarantees the protocol thread is
        # never starved of fetch by stalled application threads.
        dq = self.decode_q
        occupancy = len(dq.app) + len(dq.proto)
        app_room = occupancy < dq.capacity - dq.reserved
        proto_room = occupancy < dq.capacity
        fetchable = self._fetchable
        candidates = [
            t
            for t in self.threads
            if (proto_room if t.protocol else app_room) and fetchable(t)
        ]
        if not candidates:
            return
        if len(candidates) > 1:
            candidates.sort(key=lambda t: (t.icount, not t.protocol))
        budget = self._fetch_width
        for t in candidates[:FETCH_THREADS]:
            if budget <= 0:
                break
            budget = self._fetch_thread(t, budget)

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
        build-list-and-sort replaced by a single top-2 scan: the sort
        key ``(icount, not protocol)`` packs into one integer
        (``icount`` is non-negative) and strict-less-than comparisons
        keep the earlier thread on ties, exactly like the stable sort.
        Selected threads fetch through the compiled loops — superblock
        fetch for compiled app sources, the inline protocol-buffer loop
        for the protocol thread — falling back to the reference
        :meth:`_fetch_thread` for wrong-path fill and interpreted
        sources.
        """
        if self._fetch_idle:
            # Latched no-candidate verdict: every thread was done,
            # stalled, parked, or out of decode room at the last scan,
            # and no event that could change that has fired since (see
            # the latch contract in __init__).  In particular no source
            # refill is skipped: a latched thread's source was parked
            # (waiting/sleeping/done) or blocked before its
            # peek_available test, so the reference scan would not have
            # advanced it either.
            return
        dq = self.decode_q
        occupancy = len(dq.app) + len(dq.proto)
        app_room = occupancy < dq.capacity - dq.reserved
        proto_room = occupancy < dq.capacity
        best = None
        second = None
        bk = sk = 0
        for t in self.threads:
            if t.protocol:
                if not proto_room:
                    continue
            elif not app_room:
                continue
            if t.done or t.fetch_stalled:
                continue
            if t.wrongpath_branch is not None:
                if t.wp_emitted >= WRONG_PATH_CAP:
                    continue
            elif t.protocol:
                src = t.source
                if not src._buffer and not src.fetching:
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
                    continue
            elif not t.source.peek_available():
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
        if best is None:
            self._fetch_idle = True
            return
        budget = self._fetch_width
        if best.wrongpath_branch is not None:
            budget = self._fetch_thread(best, budget)
        elif best.protocol:
            budget = self._fetch_thread_proto(best, budget)
        elif best.compiled_src:
            budget = self._fetch_thread_fast(best, budget)
        else:
            budget = self._fetch_thread(best, budget)
        if second is not None and budget > 0:
            t = second
            if t.wrongpath_branch is not None:
                self._fetch_thread(t, budget)
            elif t.protocol:
                self._fetch_thread_proto(t, budget)
            elif t.compiled_src:
                self._fetch_thread_fast(t, budget)
            else:
                self._fetch_thread(t, budget)

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
        self.wake_fetch()

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
        uop.predicted_taken = predicted_taken
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

    def _decode_stage(self) -> None:
        dq = self.decode_q
        first_proto = dq._proto_first
        dq._proto_first = not first_proto
        if not dq.proto and not dq.app:
            return  # empty stage: only the priority parity advances
        moved = 0
        sections = (True, False) if first_proto else (False, True)
        for protocol in sections:
            src = dq.proto if protocol else dq.app
            while src and moved < self.pp.front_end_width:
                if not self.rename_q.can_push(protocol):
                    break
                self.rename_q.push(src.popleft(), protocol)
                moved += 1
        if moved:
            self._worked = True

    def _decode_nt(self) -> None:
        """Bulk decode->rename move.

        Equivalent to :meth:`_decode_stage`: the per-µop ``can_push``
        test is monotone within one cycle (only this loop pushes), so
        the admissible count per section is computable up front and the
        µops move in one run.
        """
        dq = self.decode_q
        first_proto = dq._proto_first
        dq._proto_first = not first_proto
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

    def _rename_stage(self) -> None:
        rq = self.rename_q
        first_proto = rq._proto_first
        rq._proto_first = not first_proto
        if not rq.proto and not rq.app:
            return  # empty stage: only the priority parity advances
        renamed = 0
        width = self._few
        sections = (True, False) if first_proto else (False, True)
        for protocol in sections:
            src = rq.proto if protocol else rq.app
            while src and renamed < width:
                if not self._try_rename(src[0]):
                    break
                src.popleft()
                renamed += 1
        if renamed:
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

    def _try_rename(self, uop: Uop) -> bool:
        # Rename-stage resource gate.  Retried every cycle for a
        # stalled queue head, so the failure checks are inlined pool
        # arithmetic (can_rename/can_acquire bodies) rather than method
        # calls — the semantics are identical.
        t = self.threads[uop.thread]
        protocol = uop.protocol
        commit_stage = uop.commit_stage
        # The issue-queue pool is by far the most frequent blocker, so
        # it is tested first (the checks are independent and pure).
        if not commit_stage:
            pool = self.fq_pool if uop.is_fp else self.iq_pool
            if pool.app_used + pool.proto_used >= (
                pool.total if protocol else pool.total - pool.reserved
            ):
                return False
        if len(t.rob) >= self._active_list:
            return False
        rn = self.rename
        dest = uop.dest
        if dest is not None:
            if dest >= FP_BASE:
                if not rn._free_fp:
                    return False
            elif len(rn._free_int) <= (0 if protocol else rn.reserved_int):
                return False
        # SWITCH/LDCTXT are uncached loads: they hold LSQ slots until
        # they graduate (the paper's "switch stalls the head of the
        # load/store queue").
        needs_lsq = uop.is_memory or (
            commit_stage and uop.kind is not UopKind.UNCACHED
        )
        if needs_lsq:
            lp = self.lsq_pool
            if lp.app_used + lp.proto_used >= (
                lp.total if protocol else lp.total - lp.reserved
            ):
                return False
        if uop.is_branch:
            bp = self.bstack_pool
            if bp.app_used + bp.proto_used >= (
                bp.total if protocol else bp.total - bp.reserved
            ):
                return False

        if uop.is_branch:
            self.bstack_pool.acquire(protocol)
            uop.checkpoint = rn.checkpoint(uop.thread, t.ras.snapshot())
        if needs_lsq:
            self.lsq_pool.acquire(protocol)
            uop.in_lsq = True
            if uop.is_memory and uop.kind is not UopKind.PREFETCH:
                uop.mem_seq = t.mem_seq_next
                t.mem_seq_next += 1
        rn.rename(uop)
        t.rob.append(uop)
        if not commit_stage:
            pool.acquire(protocol)
            (self.fq if uop.is_fp else self.iq).append(uop)
        # Table 9 peaks are tracked by the pools / rename unit.
        return True

    # ------------------------------------------------------------------
    # Issue and execute
    # ------------------------------------------------------------------

    def _issue(self) -> None:
        alu = 6
        agu = 1
        fpu = 3
        if self.iq:
            threads = self.threads
            kept: List[Uop] = []
            keep = kept.append
            for uop in self.iq:
                if uop.squashed:
                    continue
                if alu <= 0 and agu <= 0:
                    keep(uop)
                    continue
                issued = False
                if uop.is_memory:
                    if agu > 0 and not uop.n_wait and self._can_issue_mem(uop):
                        # Even a BLOCKED attempt records hierarchy stats,
                        # so an issuable memory µop keeps the core awake.
                        self._worked = True
                        issued = self._issue_mem(uop)
                        if issued:
                            agu -= 1
                else:
                    if alu > 0 and not uop.n_wait:
                        if uop.kind is UopKind.DIV:
                            if self.div_free_at > self.cycle:
                                keep(uop)
                                self._note_unit_wake(self.div_free_at)
                                continue
                            self.div_free_at = self.cycle + self.pp.int_div_latency
                        issued = True
                        alu -= 1
                        self._schedule_complete(uop, self._latency_of(uop))
                if issued:
                    self._worked = True
                    uop.issued = True
                    threads[uop.thread].icount -= 1
                    self.iq_pool.release(uop.protocol)
                else:
                    keep(uop)
            self.iq = kept
        if self.fq:
            kept = []
            keep = kept.append
            for uop in self.fq:
                if uop.squashed:
                    continue
                if fpu > 0 and not uop.n_wait:
                    if uop.kind is UopKind.FDIV:
                        if self.fdiv_free_at > self.cycle:
                            keep(uop)
                            self._note_unit_wake(self.fdiv_free_at)
                            continue
                        self.fdiv_free_at = self.cycle + self.pp.fp_div_dp_latency
                    fpu -= 1
                    self._worked = True
                    uop.issued = True
                    self.threads[uop.thread].icount -= 1
                    self.fq_pool.release(uop.protocol)
                    self._schedule_complete(uop, self._latency_of(uop))
                else:
                    keep(uop)
            self.fq = kept

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

    def _can_issue_mem(self, uop: Uop) -> bool:
        t = self.threads[uop.thread]
        if uop.kind is UopKind.PREFETCH:
            return True
        if uop.mem_seq != t.mem_issue_next:
            return False
        if uop.kind is UopKind.ATOMIC:
            # Non-speculative and SC-ordered: all older instructions
            # retired and all older stores globally performed.
            return bool(t.rob) and t.rob[0] is uop and not self._sb_fifo[t.tid]
        return True

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
        # Only a completion of a thread's *window head* can change the
        # commit scan's verdict (the scan examines heads only, and a
        # valid cache pins the heads); the fetch candidate set only
        # changes on the value-carrying path (a load value can unpark
        # its source) or a mispredict squash (_resolve_branch clears
        # both latches).
        if self._cm_stall is not None:
            rob = self.threads[uop.thread].rob
            if rob and rob[0] is uop:
                self._cm_stall = None
        if self._asleep:
            # wake(), inlined: rejoin the machine's active set.
            self._asleep = False
            m = self.machine
            if m is not None:
                m._cores_dirty = True
        if uop.squashed or uop.completed:
            return
        uop.completed = True
        uop.complete_cycle = self.wheel.now
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
            self._fetch_idle = False
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
        # Squash changes front-end occupancy and wrong-path state, and
        # mutates the window: drop both quiet-stage latches.
        self._cm_stall = None
        self._fetch_idle = False
        t = self.threads[uop.thread]
        squashed_any = False
        while t.rob and t.rob[-1] is not uop:
            victim = t.rob.pop()
            self._squash(victim)
            squashed_any = True
        # Front-end squash: wrong-path µops still sitting in the decode
        # or rename queues are flushed too (they own no registers or
        # window slots yet — only ICOUNT).
        for q in (self.decode_q, self.rename_q):
            section = q.proto if t.protocol else q.app
            for queued in list(section):
                if queued.thread == t.tid and queued.seq > uop.seq:
                    section.remove(queued)
                    queued.squashed = True
                    t.icount -= 1
                    t.stats.squashed += 1
                    if t.protocol:
                        self.node.stats.protocol.squashed += 1
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

    def _commit(self) -> None:
        # Memory-stall accounting (paper §4: per application thread).
        # The head-retirability scan doubles as the retire-loop gate:
        # _retirable is side-effect free, and stall counting mutates
        # nothing it reads, so "no head retirable here" still holds at
        # the retire loop — skipping it retires exactly what the full
        # scan would (nothing).
        threads = self.threads
        retirable = self._retirable
        sb = self.sb_pool
        any_ready = False
        for t in threads:
            rob = t.rob
            if rob:
                head = rob[0]
                # _retirable, inlined for the dominant cases: completed
                # non-store (and completed store with SB room) retires;
                # commit-stage µops take the slow predicate.
                if head.completed:
                    if head.kind is not UopKind.STORE or (
                        sb.app_used + sb.proto_used
                        < (sb.total if head.protocol else sb.total - sb.reserved)
                    ):
                        any_ready = True
                        continue
                elif head.commit_stage and retirable(head):
                    any_ready = True
                    continue
                if head.is_memory:
                    t.stats.memory_stall_cycles += 1
                else:
                    t.stats.other_stall_cycles += 1
        n = len(threads)
        committed_any = False
        if any_ready:
            budget = self._commit_width
            rr = self._rr
            for i in range(n):
                t = threads[(rr + i) % n]
                rob = t.rob
                while budget > 0 and rob:
                    head = rob[0]
                    if head.completed:
                        if head.kind is UopKind.STORE and (
                            sb.app_used + sb.proto_used
                            >= (sb.total if head.protocol else sb.total - sb.reserved)
                        ):
                            break
                    elif not (head.commit_stage and retirable(head)):
                        break
                    self._retire(t, head)
                    rob.popleft()
                    budget -= 1
                    committed_any = True
                if budget <= 0:
                    break
        self._rr = (self._rr + 1) % n
        if committed_any:
            self._worked = True
            if self.machine is not None:
                self.machine.note_progress()
        for t in self._app_threads:
            if not t.done and not t.rob and t.icount == 0 and t.source.done:
                t.done = True
                t.stats.finish_cycle = self.cycle
                t.stats.done = True
                self._worked = True

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
        self._cm_stall = None
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
