"""The reference core stages: the plain-scan executable specification.

:meth:`SMTCore.step` runs these stages on every core under
``REPRO_APP_INTERP=1`` — commit, issue, rename, decode, fetch, each a
direct reading of the paper's pipeline: one flat issue list, a
per-µop rename gate, ICOUNT fetch by sort.  The fused paths
(:meth:`SMTCore._step_1t`, :meth:`SMTCore._step_nt`) are
differentially tested against them (``tests/test_differential.py``).
They live in their own module as a mixin of :class:`SMTCore`; the
helpers they share with the fused paths (``_retire``,
``_retirable``, ``_issue_mem``, ``_fetch_thread`` …) stay in
:mod:`repro.pipeline.core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.isa.uop import FP_BASE, Uop, UopKind

if TYPE_CHECKING:
    from repro.pipeline.core import SMTCore, ThreadContext

#: Synthetic wrong-path µop cap per mispredict (resource back-pressure
#: throttles well before this).
WRONG_PATH_CAP = 64
#: Threads fetched per cycle: the "2" of ICOUNT(2,8).
FETCH_THREADS = 2


class ReferenceStages:
    """The plain-scan stages of :meth:`SMTCore.step`."""

    def _commit(self: "SMTCore") -> None:
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
            # Round-robin start: advances one thread per cycle.
            rr = (self.cycle - self._cycle0) % n
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
        if committed_any:
            self._worked = True
            m = self.machine
            if m is not None:
                m._commit_cycle = m.cycle  # the watchdog's commit stamp
        for t in self._app_threads:
            if not t.done and not t.rob and t.icount == 0 and t.source.done:
                t.done = True
                t.stats.finish_cycle = self.cycle
                t.stats.done = True
                self._worked = True

    def _issue(self: "SMTCore") -> None:
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

    def _can_issue_mem(self: "SMTCore", uop: Uop) -> bool:
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

    def _rename_stage(self: "SMTCore") -> None:
        rq = self.rename_q
        if not rq.proto and not rq.app:
            return
        first_proto = (self.cycle - self._cycle0) & 1
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

    def _try_rename(self: "SMTCore", uop: Uop) -> bool:
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

    def _decode_stage(self: "SMTCore") -> None:
        dq = self.decode_q
        if not dq.proto and not dq.app:
            return
        # Section priority alternates every cycle (see _step_nt).
        first_proto = (self.cycle - self._cycle0) & 1
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

    def _fetch(self: "SMTCore") -> None:
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

    def _fetchable(self: "SMTCore", t: ThreadContext) -> bool:
        if t.done or t.fetch_stalled:
            return False
        if t.wrongpath_branch is not None:
            return t.wp_emitted < WRONG_PATH_CAP
        return t.source.peek_available()
