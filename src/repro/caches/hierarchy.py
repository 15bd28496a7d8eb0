"""Per-node cache hierarchy: L1I + L1D + unified L2 + bypass buffers.

Responsibilities
----------------
* Service pipeline loads/stores/ifetches/prefetches with Table 2
  latencies (L1 hit 1 cycle, L2 hit 9 cycles round trip) and TLB
  penalties.
* Allocate/merge MSHRs for L2 misses and hand application misses to the
  memory controller (Local Miss Interface) and protocol-space misses to
  the dedicated SDRAM path (paper §2.1: protocol misses bypass the
  Local Miss Interface).
* Maintain inclusion (L2 eviction kills L1 copies), write-back L2 with
  write-through L1D (a modelling simplification documented in
  DESIGN.md), eager-exclusive fills.
* Service coherence interventions (invalidate/downgrade probes) from
  the memory controller, deferring probes that race an in-flight fill.
* Divert protocol-thread lines that conflict with in-flight application
  misses into the fully-associative bypass buffers (paper §2.2).

Data model
----------
Application data is modelled as a per-line *version* (bumped by every
store; the coherence sanitizer uses it to detect lost updates) plus a
global functional word store used by synchronization values.  Stores
only execute once ownership is held, so functional word visibility
follows coherence-ordered timing (see DESIGN.md on eager-exclusive).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.caches.bypass import BypassBuffer
from repro.caches.coherence import CacheState
from repro.caches.mshr import MissKind, MSHREntry, MSHRFile
from repro.caches.sa_cache import SetAssocCache
from repro.common.errors import ProtocolError
from repro.common.params import MachineParams
from repro.common.stats import NodeStats

#: Access outcome tags returned to the pipeline.
HIT = "hit"
MISS = "miss"
BLOCKED = "blocked"

ProbeResponse = Callable[[bool, bool, int], None]  # (found, dirty, version)


# Default ports (standalone hierarchies in unit tests).
def _discard(*args) -> None:
    pass


def _run_now(delay: int, fn: Callable[[], None]) -> None:
    fn()


def _proto_miss_now(line_addr: int, on_done: Callable[[int], None]) -> None:
    on_done(0)


def _zero_word(addr: int) -> int:
    return 0


class _Waiter:
    """Internal completion record for one memory operation."""

    __slots__ = ("is_store", "addr", "value", "atomic_op", "operand", "callback")

    def __init__(
        self,
        is_store: bool,
        addr: int,
        value: Optional[int],
        callback: Callable[[int], None],
        atomic_op: Optional[str] = None,
        operand: int = 0,
    ) -> None:
        self.is_store = is_store
        self.addr = addr
        self.value = value
        self.atomic_op = atomic_op
        self.operand = operand
        self.callback = callback


class _TLB:
    """Fully-associative LRU TLB."""

    __slots__ = ("entries", "capacity", "page_shift", "misses", "hits")

    def __init__(self, entries: int, page_bytes: int) -> None:
        self.capacity = entries
        self.page_shift = page_bytes.bit_length() - 1
        self.entries: "OrderedDict[int, None]" = OrderedDict()
        self.misses = 0
        self.hits = 0

    def access(self, addr: int) -> bool:
        """Touch the page; returns True on hit."""
        page = addr >> self.page_shift
        if page in self.entries:
            self.entries.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        if len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)
        self.entries[page] = None
        return False


def is_protocol_space(addr: int) -> bool:
    """Protocol (unmapped) physical space lives above bit 56."""
    return bool(addr >> 56 & 1)


PROTO_SPACE_BIT = 1 << 56

#: Application code lives in its own physical region (replicated
#: read-only per node), so instruction lines never alias data lines.
ICODE_SPACE_BIT = 1 << 55


def is_app_line(line_addr: int) -> bool:
    """Application data: neither protocol space nor application code."""
    return not line_addr & (PROTO_SPACE_BIT | ICODE_SPACE_BIT)


class CacheHierarchy:
    def __init__(self, node_id: int, mp: MachineParams, stats: NodeStats) -> None:
        self.node_id = node_id
        self.mp = mp
        self.pp = mp.proc
        self.stats = stats

        self.l1i = SetAssocCache("l1i", self.pp.l1i, stats.l1i)
        self.l1d = SetAssocCache("l1d", self.pp.l1d, stats.l1d)
        self.l2 = SetAssocCache("l2", self.pp.l2, stats.l2)
        nb = self.pp.bypass_buffer_lines
        self.ibypass = BypassBuffer("ibypass", nb, self.pp.l1i.line_bytes)
        self.dbypass = BypassBuffer("dbypass", nb, self.pp.l1d.line_bytes)
        self.l2bypass = BypassBuffer("l2bypass", nb, self.pp.l2.line_bytes)

        proto_res = self.pp.reserved_mshrs if mp.protocol_engine == "thread" else 0
        self.mshrs = MSHRFile(self.pp.mshrs, protocol_reserved=proto_res)
        # Deferred probes per line: (kind, on_response).
        self._deferred_probes: Dict[int, List[Tuple[str, ProbeResponse]]] = {}
        # Writeback buffer: lines with a PUT sent but not yet WB_ACKed.
        # While a line is pending here, (a) no new request for it is
        # issued (a racing miss parks as the dict value and issues on
        # wb_ack), and (b) interventions for it answer "not found" —
        # they target the copy the PUT already carried away.  The home
        # withholds WB_ACK until no intervention is outstanding, so a
        # pending writeback is proof an arriving intervention is stale.
        self._wb_pending: Dict[int, Optional[MSHREntry]] = {}

        self.itlb = _TLB(self.pp.itlb_entries, self.pp.page_bytes)
        self.dtlb = _TLB(self.pp.dtlb_entries, self.pp.page_bytes)

        # Outstanding instruction-line misses: line -> callbacks.
        self._imisses: Dict[int, List[Callable[[], None]]] = {}

        # ---- wiring installed by the Node ----
        # Defaults serve standalone hierarchies; the Node rewires them.
        self.schedule: Callable[[int, Callable[[], None]], None] = _run_now
        # Application-space L2 miss: hand the MSHR entry to the MC.
        self.app_miss_port: Callable[[MSHREntry], None] = _discard
        # Protocol-space L2 miss: dedicated SDRAM path.
        self.proto_miss_port: Callable[[int, Callable[[int], None]], None] = (
            _proto_miss_now
        )
        # Dirty/exclusive eviction of an application line.
        self.writeback_port: Callable[[int, int, bool], None] = _discard
        # Protocol-space writeback (local memory timing only).
        self.proto_writeback_port: Callable[[int], None] = _discard
        # Functional word store (shared machine-wide).
        self.read_word: Callable[[int], int] = _zero_word
        self.write_word: Callable[[int, int], None] = _discard
        # Observer hook for the coherence sanitizer (one per hierarchy).
        self.on_store: Callable[[int], None] = _discard

    # ------------------------------------------------------------------
    # Pipeline-side API
    # ------------------------------------------------------------------

    def load(
        self,
        addr: int,
        protocol: bool,
        on_complete: Callable[[int], None],
    ):
        """Issue a load.  Returns (HIT, latency, value), (MISS,) with
        ``on_complete(value)`` deferred, or (BLOCKED,)."""
        if not protocol:
            # Application fast path: the TLB touch and the L1D probe
            # loop are inlined — one load per application memory µop
            # lands here, the overwhelmingly common hierarchy call.
            dtlb = self.dtlb
            page = addr >> dtlb.page_shift
            entries = dtlb.entries
            if page in entries:
                entries.move_to_end(page)
                dtlb.hits += 1
                extra = 0
            else:
                dtlb.misses += 1
                if len(entries) >= dtlb.capacity:
                    entries.popitem(last=False)
                entries[page] = None
                extra = self.pp.tlb_miss_penalty
            l1 = self.l1d
            tag = addr >> l1.line_shift
            for line in l1._sets[tag & l1.set_mask]:
                if line.state is not CacheState.INVALID and line.tag == tag:
                    l1._tick += 1
                    line.lru = l1._tick
                    self.stats.l1d.app_hits += 1
                    return (
                        HIT,
                        self.pp.l1d.hit_latency + extra,
                        self.read_word(addr),
                    )
            self.stats.l1d.app_misses += 1
        else:
            if self.pp.perfect_protocol_caches:
                return HIT, self.pp.l1d.hit_latency, self._read_value(addr)
            extra = 0
            # L1D (plus D-bypass for the protocol thread).
            line = self.l1d.access(addr)
            if line is not None:
                self.stats.l1d.record(True, protocol)
                return HIT, self.pp.l1d.hit_latency + extra, self._read_value(addr)
            if self.dbypass.lookup(addr) is not None:
                self.stats.l1d.record(True, protocol)
                return HIT, self.pp.l1d.hit_latency + extra, self._read_value(addr)
            self.stats.l1d.record(False, protocol)

        # L2 (plus L2 bypass).
        l2_line = self.l2.access(addr)
        if l2_line is None and protocol:
            if self.l2bypass.lookup(addr) is not None:
                self._fill_l1d(addr, 0, protocol)
                return HIT, self.pp.l2.hit_latency + extra, self._read_value(addr)
        if l2_line is not None:
            self.stats.l2.record(True, protocol)
            self._fill_l1d(addr, l2_line.version, protocol)
            return HIT, self.pp.l2.hit_latency + extra, self._read_value(addr)
        self.stats.l2.record(False, protocol)

        waiter = _Waiter(False, addr, None, on_complete)
        return self._l2_miss(addr, MissKind.READ, protocol, waiter)

    def store(
        self,
        addr: int,
        protocol: bool,
        value: Optional[int],
        on_complete: Callable[[int], None],
    ):
        """Issue a store (from the store buffer, post-commit)."""
        if protocol and self.pp.perfect_protocol_caches:
            if value is not None:
                self.write_word(addr, value)
            return HIT, self.pp.l1d.hit_latency, 0
        extra = 0
        if not protocol and not self.dtlb.access(addr):
            extra = self.pp.tlb_miss_penalty

        if protocol:
            # Protocol space is node-private: any cached copy is
            # writable.  Check L1D/L2/bypasses.
            if self.l1d.access(addr) is not None or self.dbypass.lookup(addr) is not None:
                self.stats.l1d.record(True, protocol)
                self._execute_store(addr, value, protocol)
                return HIT, self.pp.l1d.hit_latency + extra, 0
            self.stats.l1d.record(False, protocol)
            l2_line = self.l2.access(addr)
            if l2_line is not None or self.l2bypass.lookup(addr) is not None:
                self.stats.l2.record(True, protocol)
                self._execute_store(addr, value, protocol)
                return HIT, self.pp.l2.hit_latency + extra, 0
            self.stats.l2.record(False, protocol)
            waiter = _Waiter(True, addr, value, on_complete)
            return self._l2_miss(addr, MissKind.WRITE, protocol, waiter)

        # Application store: write-through L1D, ownership at L2.
        l1_hit = self.l1d.access(addr) is not None
        self.stats.l1d.record(l1_hit, protocol)
        l2_line = self.l2.access(addr)
        if l2_line is not None and l2_line.state.writable:
            self.stats.l2.record(True, protocol)
            self._execute_store(addr, value, protocol)
            lat = self.pp.l1d.hit_latency if l1_hit else self.pp.l2.hit_latency
            return HIT, lat + extra, 0
        waiter = _Waiter(True, addr, value, on_complete)
        if l2_line is not None:
            # Present but SHARED: ownership upgrade required.
            self.stats.l2.record(True, protocol)
            return self._l2_miss(addr, MissKind.WRITE, protocol, waiter, upgrade=True)
        self.stats.l2.record(False, protocol)
        return self._l2_miss(addr, MissKind.WRITE, protocol, waiter)

    def atomic(
        self,
        addr: int,
        op: str,
        operand: int,
        on_complete: Callable[[int], None],
    ):
        """Atomic read-modify-write (test&set / fetch&inc / swap).

        Requires ownership like a store; returns the *old* word value.
        """
        if not self.dtlb.access(addr):
            extra = self.pp.tlb_miss_penalty
        else:
            extra = 0
        l2_line = self.l2.access(addr)
        if l2_line is not None and l2_line.state.writable:
            self.stats.l2.record(True, False)
            old = self._execute_atomic(addr, op, operand)
            return HIT, self.pp.l2.hit_latency + extra, old
        waiter = _Waiter(True, addr, None, on_complete, atomic_op=op, operand=operand)
        if l2_line is not None:
            self.stats.l2.record(True, False)
            return self._l2_miss(addr, MissKind.WRITE, False, waiter, upgrade=True)
        self.stats.l2.record(False, False)
        return self._l2_miss(addr, MissKind.WRITE, False, waiter)

    def prefetch(self, addr: int, exclusive: bool) -> None:
        """Software prefetch; dropped when it would block."""
        if self.l2.lookup(addr) is not None:
            line = self.l2.lookup(addr)
            if not exclusive or (line is not None and line.state.writable):
                return
        la = self.l2.line_addr(addr)
        entry = self.mshrs.get(la)
        kind = MissKind.PREFETCH_EX if exclusive else MissKind.PREFETCH
        if entry is not None:
            return  # already in flight
        entry = self.mshrs.allocate(la, kind, protocol=False, store=False)
        if entry is None:
            return  # MSHRs full: drop
        self._issue_app_miss(entry)
        entry.issued = True

    def ifetch(self, pc: int, protocol: bool, on_complete: Callable[[], None]):
        """Instruction fetch of the line holding ``pc``.

        Returns (HIT, latency) or (MISS,) with ``on_complete()`` later.
        Code is read-only and node-local, so misses use a fixed
        L2+SDRAM path without coherence.
        """
        if protocol and self.pp.perfect_protocol_caches:
            return HIT, self.pp.l1i.hit_latency
        if not protocol:
            extra = 0 if self.itlb.access(pc) else self.pp.tlb_miss_penalty
            pc |= ICODE_SPACE_BIT  # keep code lines out of the data space
        else:
            extra = 0
        if self.l1i.access(pc) is not None:
            self.stats.l1i.record(True, protocol)
            return HIT, self.pp.l1i.hit_latency + extra
        if protocol and self.ibypass.lookup(pc) is not None:
            self.stats.l1i.record(True, protocol)
            return HIT, self.pp.l1i.hit_latency + extra
        self.stats.l1i.record(False, protocol)
        l2_line = self.l2.access(pc)
        if l2_line is not None or (protocol and self.l2bypass.lookup(pc) is not None):
            self.stats.l2.record(True, protocol)
            self._fill_l1i(pc, protocol)
            return HIT, self.pp.l2.hit_latency + extra
        self.stats.l2.record(False, protocol)
        la = self.l2.line_addr(pc)
        cbs = self._imisses.get(la)
        if cbs is not None:
            cbs.append(on_complete)
            return (MISS,)
        self._imisses[la] = [on_complete]
        delay = self.mp.sdram_access_cycles + self.pp.l2.hit_latency
        self.schedule(delay, partial(self._ifill, la, protocol))
        return (MISS,)

    # ------------------------------------------------------------------
    # Memory-controller-side API
    # ------------------------------------------------------------------

    def refill(
        self,
        line_addr: int,
        writable: bool,
        version: int,
        acks: int = 0,
        dirty: bool = False,
    ) -> None:
        """A data reply landed for an application-space miss."""
        entry = self.mshrs.get(line_addr)
        if entry is None:
            raise ProtocolError(
                f"node {self.node_id}: refill {line_addr:#x} with no MSHR"
            )
        self.mshrs.data_reply(line_addr, version, writable, acks)
        if entry.upgrade_pending and entry.data_arrived and not writable:
            # A read miss with merged stores received only a SHARED
            # copy: install it, satisfy the loads, and convert the
            # entry into an ownership upgrade for the stores.
            self._convert_to_upgrade(entry)
            return
        self._maybe_complete(entry, dirty)

    def upgrade_ack(self, line_addr: int, acks: int) -> None:
        """Home granted ownership of a line we already hold SHARED."""
        entry = self.mshrs.get(line_addr)
        if entry is None:
            raise ProtocolError(
                f"node {self.node_id}: upgrade ack {line_addr:#x} with no MSHR"
            )
        line = self.l2.lookup(line_addr)
        version = line.version if line is not None else 0
        self.mshrs.data_reply(line_addr, version, writable=True, acks=acks)
        self._maybe_complete(entry, dirty=False)

    def inval_ack(self, line_addr: int) -> None:
        entry = self.mshrs.inval_ack(line_addr)
        if entry is None:
            raise ProtocolError(
                f"node {self.node_id}: inval ack {line_addr:#x} with no MSHR"
            )
        self._maybe_complete(entry, dirty=False)

    def record_retry(self, line_addr: int) -> int:
        """A NACK arrived; bump the retry counter.  Returns retries."""
        entry = self.mshrs.get(line_addr)
        if entry is None:
            raise ProtocolError(
                f"node {self.node_id}: NACK {line_addr:#x} with no MSHR"
            )
        entry.retries += 1
        return entry.retries

    def probe(self, line_addr: int, kind: str, on_response: ProbeResponse) -> None:
        """Coherence probe from the home node.

        ``kind`` is 'inval' or 'downgrade'.  Responds (after the L2
        round trip) with (found, dirty, version).  Probes racing an
        in-flight fill of the same line are deferred until the fill.
        """
        if line_addr in self._wb_pending:
            # Writeback-buffer hit: our PUT for this line is in flight
            # and unacknowledged, so this intervention targets the copy
            # the PUT already carried away.  Answer "not found"; any
            # parked miss of ours is serialized after this transaction.
            self.schedule(
                self.pp.l2.hit_latency, partial(on_response, False, False, 0)
            )
            return
        entry = self.mshrs.get(line_addr)
        if entry is not None and not entry.complete:
            if kind == "inval":
                if self.l2.lookup(line_addr) is None:
                    # A stale invalidation (our sharer bit outlived the
                    # copy) racing our own re-fetch.  Ack it right away
                    # — the invalidating writer must not wait on our
                    # fill — and discard a non-writable fill afterwards
                    # (a writable fill was serialized *after* the
                    # invalidating transaction, so it survives).
                    entry.inval_after_fill = True
                    self.schedule(
                        self.pp.l2.hit_latency,
                        partial(on_response, False, False, 0),
                    )
                    return
                # An invalidation racing an in-flight UPGRADE applies to
                # the still-present SHARED copy immediately — deferring
                # it would deadlock the ack chain (the upgrade comes
                # back NACK_UPGRADE and retries as a full GETX).
            else:
                self._deferred_probes.setdefault(line_addr, []).append(
                    (kind, on_response)
                )
                return
        self.schedule(
            self.pp.l2.hit_latency,
            partial(self._do_probe, line_addr, kind, on_response),
        )

    def wb_ack(self, line_addr: int) -> None:
        """Home acknowledged our PUT: the line leaves the writeback
        buffer, and a miss parked behind it issues now."""
        entry = self._wb_pending.pop(line_addr, None)
        if entry is not None and self.mshrs.get(line_addr) is entry:
            self.app_miss_port(entry)

    def proto_refill(self, line_addr: int, version: int = 0) -> None:
        """Protocol-space line arrived over the dedicated SDRAM bus."""
        entry = self.mshrs.get(line_addr)
        if entry is None:
            raise ProtocolError(
                f"node {self.node_id}: proto refill {line_addr:#x} with no MSHR"
            )
        self.mshrs.data_reply(line_addr, version, writable=True, acks=0)
        self._maybe_complete(entry, dirty=False)

    # ------------------------------------------------------------------
    # Sanitizer helpers
    # ------------------------------------------------------------------

    def cached_app_lines(self) -> Dict[int, CacheState]:
        return {
            la: st for la, st in self.l2.contents().items() if is_app_line(la)
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _read_value(self, addr: int) -> int:
        return self.read_word(addr)

    def _fill_l1d(self, addr: int, version: int, protocol: bool) -> None:
        la = self.l1d.line_addr(addr)
        if self.l1d.lookup(la) is not None:
            return
        if protocol and self._conflicts_with_app_miss(self.l1d, la):
            self.dbypass.install(la, version)
            self.stats.bypass_allocations += 1
            return
        # Write-through L1D: the victim is always clean, discard it.
        self.l1d.install(la, CacheState.SHARED, version, protocol)

    def _fill_l1i(self, pc: int, protocol: bool) -> None:
        la = self.l1i.line_addr(pc)
        if self.l1i.lookup(la) is not None:
            return
        if protocol and self._conflicts_with_app_miss(self.l1i, la):
            self.ibypass.install(la, 0)
            self.stats.bypass_allocations += 1
            return
        self.l1i.install(la, CacheState.SHARED, 0, protocol)

    def _ifill(self, line_addr: int, protocol: bool) -> None:
        """Instruction line arrived from local memory: fill L2 + L1I."""
        if self.l2.lookup(line_addr) is None:
            if protocol and self._conflicts_with_app_miss(self.l2, line_addr):
                self.l2bypass.install(line_addr, 0)
                self.stats.bypass_allocations += 1
            else:
                self._install_l2(line_addr, CacheState.SHARED, 0, protocol)
        self._fill_l1i(line_addr, protocol)
        for cb in self._imisses.pop(line_addr, []):
            cb()

    def _conflicts_with_app_miss(self, cache: SetAssocCache, line_addr: int) -> bool:
        """Paper §2.2: does this protocol line index-conflict with any
        in-flight application miss?"""
        target_set = cache.set_index(line_addr)
        for la, entry in self.mshrs.entries.items():
            if not entry.protocol and cache.set_index(la) == target_set:
                return True
        return False

    def _execute_store(self, addr: int, value: Optional[int], protocol: bool) -> None:
        """Perform a store's semantics against owned copies."""
        if value is not None:
            self.write_word(addr, value)
        if protocol:
            # Node-private space: bump whichever copy exists.
            l2_line = self.l2.lookup(addr)
            if l2_line is not None:
                l2_line.version += 1
                l2_line.dirty = True
            else:
                self.l2bypass.write(addr, 1)
            if self.l1d.lookup(addr) is None:
                self.dbypass.write(addr, 1)
            return
        l2_line = self.l2.lookup(addr)
        if l2_line is None or not l2_line.state.writable:
            raise ProtocolError(
                f"node {self.node_id}: store to {addr:#x} without ownership"
            )
        l2_line.state = CacheState.MODIFIED
        l2_line.dirty = True
        l2_line.version += 1
        self.on_store(self.l2.line_addr(addr))
        l1_line = self.l1d.lookup(addr)
        if l1_line is not None:
            l1_line.version = l2_line.version

    def _execute_atomic(self, addr: int, op: str, operand: int) -> int:
        old = self.read_word(addr)
        if op == "tas":
            new = 1
        elif op == "fai":
            new = old + operand
        elif op == "swap":
            new = operand
        else:
            raise ValueError(f"unknown atomic op {op!r}")
        self._execute_store(addr, None, protocol=False)
        self.write_word(addr, new)
        return old

    def _l2_miss(
        self,
        addr: int,
        kind: MissKind,
        protocol: bool,
        waiter: _Waiter,
        upgrade: bool = False,
    ):
        la = self.l2.line_addr(addr)
        entry = self.mshrs.get(la)
        if entry is not None:
            self.mshrs.merge(entry, waiter, kind.wants_write)
            return (MISS,)
        entry = self.mshrs.allocate(
            la, kind, protocol=protocol, store=waiter.is_store and not protocol
        )
        if entry is None:
            return (BLOCKED,)
        entry.waiters.append(waiter)
        if upgrade:
            entry.request_upgrade = True
            line = self.l2.lookup(la)
            if line is not None:
                # Pin the SHARED copy: evicting it while the ownership
                # upgrade is in flight would complete the upgrade
                # against nothing.
                line.locked = True
        if protocol:
            self.proto_miss_port(la, partial(self.proto_refill, la))
        else:
            if upgrade:
                entry.kind = MissKind.WRITE
            self._issue_app_miss(entry)
        entry.issued = True
        self.stats.local_misses += 1
        return (MISS,)

    def _issue_app_miss(self, entry: MSHREntry) -> None:
        """Hand an application miss to the MC — unless the line sits
        in the writeback buffer, in which case it parks until wb_ack
        (issuing before the PUT is acknowledged would let the home
        re-grant us the line while the old PUT can still erase the new
        grant's ownership record)."""
        la = entry.line_addr
        if la in self._wb_pending:
            self._wb_pending[la] = entry
        else:
            self.app_miss_port(entry)

    def _wake(self, waiter: _Waiter, version: int) -> None:
        if waiter.is_store:
            if waiter.atomic_op is not None:
                old = self._execute_atomic(waiter.addr, waiter.atomic_op, waiter.operand)
                waiter.callback(old)
                return
            if is_protocol_space(waiter.addr):
                self._execute_store(waiter.addr, waiter.value, protocol=True)
            else:
                self._execute_store(waiter.addr, waiter.value, protocol=False)
            waiter.callback(0)
            return
        value = self._read_value(waiter.addr)
        self._fill_l1d(waiter.addr, version, is_protocol_space(waiter.addr))
        waiter.callback(value)

    def _convert_to_upgrade(self, entry: MSHREntry) -> None:
        la = entry.line_addr
        line = self.l2.lookup(la)
        if line is None:
            line = self._install_l2(la, CacheState.SHARED, entry.data_version, False)
        line.locked = True  # pinned until the upgrade resolves
        load_waiters = [w for w in entry.waiters if not w.is_store]
        entry.waiters = [w for w in entry.waiters if w.is_store]
        for waiter in load_waiters:
            self._wake(waiter, entry.data_version)
        entry.kind = MissKind.WRITE
        entry.upgrade_pending = False
        entry.request_upgrade = True
        entry.data_arrived = False
        entry.data_state_writable = False
        self._issue_app_miss(entry)

    def _maybe_complete(self, entry: MSHREntry, dirty: bool) -> None:
        if not entry.complete:
            return
        la = entry.line_addr
        protocol_space = is_protocol_space(la)
        if protocol_space:
            if self._conflicts_with_app_miss(self.l2, la):
                self.l2bypass.install(la, entry.data_version)
                self.stats.bypass_allocations += 1
            else:
                self._install_l2(la, CacheState.EXCLUSIVE, entry.data_version, True)
        elif entry.request_upgrade:
            line = self.l2.lookup(la)
            if line is None:
                raise ProtocolError(
                    f"node {self.node_id}: upgrade of {la:#x} completed "
                    "but the pinned SHARED copy is gone"
                )
            line.state = CacheState.MODIFIED if dirty else CacheState.EXCLUSIVE
            line.locked = False
        else:
            state = (
                CacheState.MODIFIED
                if dirty
                else (CacheState.EXCLUSIVE if entry.data_state_writable else CacheState.SHARED)
            )
            line = self.l2.lookup(la)
            if line is None:
                self._install_l2(la, state, entry.data_version, False, dirty=dirty)
            elif state.writable and not line.state.writable:
                # We still held a SHARED copy (an upgrade that lost its
                # race and retried as a full GETX): promote it.
                line.state = state
                line.version = max(line.version, entry.data_version)
                line.dirty = line.dirty or dirty
                line.locked = False
            else:
                line.locked = False
        waiters = self.mshrs.free(la)
        for waiter in waiters:
            self._wake(waiter, entry.data_version)
        if entry.inval_after_fill and not protocol_space:
            line = self.l2.lookup(la)
            if line is not None and not line.state.writable:
                # The early-acked invalidation applies to this copy.
                self._do_probe(la, "inval", _discard)
        # Probes that raced this fill run now, in arrival order.
        for kind, on_response in self._deferred_probes.pop(la, []):
            self._do_probe(la, kind, on_response)

    def _install_l2(
        self,
        line_addr: int,
        state: CacheState,
        version: int,
        protocol: bool,
        dirty: bool = False,
    ) -> None:
        victim = self.l2.victim(line_addr)
        if victim is not None and victim.valid:
            self._evict_l2_line(victim)
        return self.l2.install(line_addr, state, version, protocol, dirty=dirty)

    def _evict_l2_line(self, victim) -> None:
        victim_addr = self.l2.line_address_of(victim)
        # Inclusion: kill L1 copies of the victim.
        for sub in range(victim_addr, victim_addr + self.pp.l2.line_bytes, self.pp.l1d.line_bytes):
            self.l1d.invalidate(sub)
        for sub in range(victim_addr, victim_addr + self.pp.l2.line_bytes, self.pp.l1i.line_bytes):
            self.l1i.invalidate(sub)
        if is_protocol_space(victim_addr):
            if victim.dirty:
                self.proto_writeback_port(victim_addr)
            return
        if victim.state.writable:
            # Dirty data or a clean-exclusive replacement hint: the home
            # must learn ownership ended (avoids the intervention/PUT
            # deadlock described in DESIGN.md).
            self.stats.l2.writebacks += 1
            self._wb_pending[victim_addr] = None
            self.writeback_port(victim_addr, victim.version, victim.dirty)

    def _do_probe(self, line_addr: int, kind: str, on_response: ProbeResponse) -> None:
        line = self.l2.lookup(line_addr)
        if line is None:
            on_response(False, False, 0)
            return
        if kind == "inval" and line.state.writable:
            # Invalidations only ever target sharers; holding a
            # *writable* copy means a transaction serialized after the
            # invalidating one made this node the owner — the INVAL is
            # stale.  Ack it and keep the copy.
            on_response(False, False, 0)
            return
        found_dirty = line.dirty
        version = line.version
        if kind in ("inval", "inval_owner"):
            for sub in range(line_addr, line_addr + self.pp.l2.line_bytes, self.pp.l1d.line_bytes):
                self.l1d.invalidate(sub)
            self.l2.invalidate(line_addr)
            self.stats.l2.external_invalidations += 1
        elif kind == "downgrade":
            line.state = CacheState.SHARED
            line.dirty = False
            self.stats.l2.external_downgrades += 1
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
        on_response(True, found_dirty, version)
