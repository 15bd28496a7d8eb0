"""Register renaming: map tables, free lists, branch-stack checkpoints.

Physical register provisioning follows the paper: ``32*(n+1) + 96``
integer and floating-point registers for an ``n``-application-thread
machine, whether or not the protocol context is enabled (baselines get
the same file sizes).  One integer register is reserved for the
protocol thread; because the protocol boot sequence maps all 32
protocol logicals, a single reserved register suffices for forward
progress (paper §2.2).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.params import ProcessorParams
from repro.isa.uop import FP_BASE, Uop


class Checkpoint:
    __slots__ = ("thread", "int_map", "fp_map", "ras_snap")

    def __init__(self, thread: int, int_map: List[int], fp_map: List[int], ras_snap) -> None:
        self.thread = thread
        self.int_map = int_map
        self.fp_map = fp_map
        self.ras_snap = ras_snap


class RenameUnit:
    def __init__(self, pp: ProcessorParams) -> None:
        self.pp = pp
        n_int = pp.physical_int_regs
        n_fp = pp.physical_fp_regs
        self.int_ready = [False] * n_int
        self.fp_ready = [False] * n_fp
        self._free_int: List[int] = list(range(n_int))
        self._free_fp: List[int] = list(range(n_fp))
        self.reserved_int = (
            pp.reserved_int_regs if pp.protocol_thread else 0
        )
        # Per-thread logical->physical maps (32 int + 32 fp each).
        self.int_map: List[List[int]] = []
        self.fp_map: List[List[int]] = []
        for _ in range(pp.total_threads):
            imap = [self._free_int.pop() for _ in range(32)]
            fmap = [self._free_fp.pop() for _ in range(32)]
            for r in imap:
                self.int_ready[r] = True
            for r in fmap:
                self.fp_ready[r] = True
            self.int_map.append(imap)
            self.fp_map.append(fmap)
        # Table 9: protocol-thread integer register occupancy.
        self.proto_int_held = 32 if pp.protocol_thread else 0
        self.proto_int_peak = self.proto_int_held
        # Wakeup lists: µops waiting on a (tagged) physical register,
        # appended at rename, drained by mark_ready.  Stale entries can
        # only belong to squashed µops — a waiter's producer being
        # squashed implies the (same-thread, younger) waiter was
        # squashed with it — so draining them is harmless.
        self._waiters: dict = {}
        #: Wakeup-admission hook (compiled issue path): called with a
        #: µop exactly when its last pending source becomes ready
        #: (``n_wait`` hits 0).  None in interpreter mode — the
        #: reference issue stage re-tests ``n_wait`` by scanning.
        self.on_ready: Optional[Callable[[Uop], None]] = None

    # ------------------------------------------------------------------
    def free_int_count(self) -> int:
        return len(self._free_int)

    def can_rename(self, uop: Uop) -> bool:
        if uop.dest is None:
            return True
        if uop.dest >= FP_BASE:
            return bool(self._free_fp)
        floor = 0 if uop.protocol else self.reserved_int
        return len(self._free_int) > floor

    def rename(self, uop: Uop) -> None:
        """Map sources and allocate the destination (must fit)."""
        t = uop.thread
        imap, fmap = self.int_map[t], self.fp_map[t]
        srcs = uop.srcs
        if srcs:
            # One pass: map each source, test readiness, and register
            # the waiter — equivalent to mapping first and re-scanning.
            int_ready = self.int_ready
            fp_ready = self.fp_ready
            waiters = self._waiters
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
        if uop.dest is None:
            return
        if uop.dest >= FP_BASE:
            preg = self._free_fp.pop()
            self.fp_ready[preg] = False
            uop.pdest = preg + (1 << 20)
            uop.pdest_old = fmap[uop.dest - FP_BASE] + (1 << 20)
            fmap[uop.dest - FP_BASE] = preg
        else:
            preg = self._free_int.pop()
            self.int_ready[preg] = False
            uop.pdest = preg
            uop.pdest_old = imap[uop.dest]
            imap[uop.dest] = preg
            if uop.protocol:
                self.proto_int_held += 1
                if self.proto_int_held > self.proto_int_peak:
                    self.proto_int_peak = self.proto_int_held

    # -- readiness ---------------------------------------------------------
    def is_ready(self, preg: int) -> bool:
        if preg >= (1 << 20):
            return self.fp_ready[preg - (1 << 20)]
        return self.int_ready[preg]

    def all_ready(self, uop: Uop) -> bool:
        # Issue-stage hot path: called for every waiting uop every
        # cycle, so the per-register is_ready() call is inlined.
        int_ready = self.int_ready
        fp_ready = self.fp_ready
        for p in uop.psrcs:
            if p >= (1 << 20):
                if not fp_ready[p - (1 << 20)]:
                    return False
            elif not int_ready[p]:
                return False
        return True

    def mark_ready(self, preg: int) -> None:
        if preg >= (1 << 20):
            self.fp_ready[preg - (1 << 20)] = True
        else:
            self.int_ready[preg] = True
        lst = self._waiters.pop(preg, None)
        if lst is None:
            return
        cb = self.on_ready
        if cb is None:
            for u in lst:
                u.n_wait -= 1
        else:
            for u in lst:
                n = u.n_wait - 1
                u.n_wait = n
                # A µop waiting on the same register twice (repeated
                # source) appears twice in the list; fire only on the
                # decrement that completes the last dependence.
                if n == 0:
                    cb(u)

    # -- free-list management -----------------------------------------------
    def _release(self, preg: int, protocol: bool) -> None:
        if preg >= (1 << 20):
            self._free_fp.append(preg - (1 << 20))
        else:
            self._free_int.append(preg)
            if protocol:
                self.proto_int_held -= 1

    def commit_free(self, uop: Uop) -> None:
        """At commit the *previous* mapping of the dest is freed."""
        if uop.pdest_old != -1:
            self._release(uop.pdest_old, uop.protocol)

    def squash_free(self, uop: Uop) -> None:
        """A squashed µop returns its *new* register; the map is
        restored from the branch checkpoint."""
        if uop.pdest != -1:
            self._release(uop.pdest, uop.protocol)

    # -- checkpoints ---------------------------------------------------------
    def checkpoint(self, thread: int, ras_snap) -> Checkpoint:
        return Checkpoint(
            thread, list(self.int_map[thread]), list(self.fp_map[thread]), ras_snap
        )

    def restore(self, cp: Checkpoint) -> None:
        self.int_map[cp.thread][:] = cp.int_map
        self.fp_map[cp.thread][:] = cp.fp_map
