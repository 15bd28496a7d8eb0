"""Miss status holding registers.

One MSHR file per node sits under the L1D/L2 pair and tracks every
outstanding line miss.  Capacity follows Table 2: 16 entries for
application loads/stores, one extra usable only by retiring stores,
and (SMTp only) one reserved for the protocol thread.

Entries merge secondary misses to the same line, count invalidation
acks for eager-exclusive replies, and remember whether a writable copy
is needed so a SHARED refill can trigger a follow-up upgrade.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.common.events import EventWheel


class MissKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    PREFETCH = "prefetch"
    PREFETCH_EX = "prefetch_ex"

    @property
    def wants_write(self) -> bool:
        return self in (MissKind.WRITE, MissKind.PREFETCH_EX)


#: Waiter callback: ``fn(version)`` invoked when the miss completes.
Waiter = Callable[[int], None]


class MSHREntry:
    __slots__ = (
        "line_addr",
        "kind",
        "protocol",
        "store_class",
        "waiters",
        "pending_acks",
        "data_arrived",
        "data_version",
        "data_state_writable",
        "issued",
        "retries",
        "upgrade_pending",
        "request_upgrade",
        "inval_after_fill",
        "alloc_cycle",
    )

    def __init__(
        self,
        line_addr: int,
        kind: MissKind,
        protocol: bool,
        store_class: bool,
        alloc_cycle: int,
    ) -> None:
        self.line_addr = line_addr
        self.kind = kind
        self.protocol = protocol
        # True when the slot was granted under the retiring-store
        # reservation (affects release accounting only).
        self.store_class = store_class
        self.waiters: List[Waiter] = []
        self.pending_acks = 0
        self.data_arrived = False
        self.data_version = 0
        self.data_state_writable = False
        self.issued = False
        self.retries = 0
        self.upgrade_pending = False
        # True when the outstanding request is an ownership UPGRADE of
        # a SHARED copy (the MC composes UPGRADE instead of GETX).
        self.request_upgrade = False
        # A stale invalidation raced this fill and was acked early; a
        # non-writable fill must still be discarded after use.
        self.inval_after_fill = False
        # The machine watchdog's age clock: a line that misses again
        # gets a fresh entry, hence a fresh age.
        self.alloc_cycle = alloc_cycle

    @property
    def complete(self) -> bool:
        return self.data_arrived and self.pending_acks == 0 and not self.upgrade_pending

    def want_write(self) -> bool:
        return self.kind.wants_write


class MSHRFile:
    """The per-node MSHR pool with class-based capacity limits."""

    def __init__(self, app_entries: int = 16, protocol_reserved: int = 0) -> None:
        self.app_entries = app_entries
        self.protocol_reserved = protocol_reserved
        self.store_extra = 1  # the "+1 for retiring stores"
        self.entries: Dict[int, MSHREntry] = {}
        self._app_used = 0
        self._store_used = 0
        self._proto_used = 0
        self.peak_proto = 0
        #: Wake hook (activity contract): called whenever an entry is
        #: freed, since that can unblock issue attempts that found the
        #: file full and were never registered as waiters.
        self.on_free: Optional[Callable[[], None]] = None
        #: The clock of the watchdog's stamps: the node wires in its
        #: wheel; a standalone file keeps one that stays at cycle 0.
        self.clock = EventWheel()
        #: Cycle of the last :meth:`free` (progress, to the watchdog).
        self.last_free = 0

    # -- capacity ---------------------------------------------------------
    @property
    def total_capacity(self) -> int:
        return self.app_entries + self.store_extra + self.protocol_reserved

    def _can_allocate(self, protocol: bool, store: bool) -> bool:
        # Protocol overflow beyond its reserve occupies shared slots, so
        # every class's admission check must charge the same pool —
        # otherwise interleaved store/app allocations overcommit the
        # file past total_capacity.
        spill = max(0, self._proto_used - self.protocol_reserved)
        shared = self._app_used + self._store_used + spill
        if protocol:
            return (
                self._proto_used < self.protocol_reserved
                or shared < self.app_entries + self.store_extra
            )
        if store:
            return shared < self.app_entries + self.store_extra
        return shared < self.app_entries

    def __len__(self) -> int:
        return len(self.entries)

    # -- lookup / allocate -------------------------------------------------
    def get(self, line_addr: int) -> Optional[MSHREntry]:
        return self.entries.get(line_addr)

    def allocate(
        self,
        line_addr: int,
        kind: MissKind,
        protocol: bool = False,
        store: bool = False,
    ) -> Optional[MSHREntry]:
        """Allocate a fresh entry; returns None when the class is full.

        The caller must have checked :meth:`get` first — allocating on
        top of an existing entry is a bug.
        """
        if line_addr in self.entries:
            raise ValueError(f"MSHR already holds {line_addr:#x}; merge instead")
        if not self._can_allocate(protocol, store):
            return None
        entry = MSHREntry(
            line_addr, kind, protocol, store and not protocol, self.clock.now
        )
        self.entries[line_addr] = entry
        if protocol:
            self._proto_used += 1
            self.peak_proto = max(self.peak_proto, self._proto_used)
        elif entry.store_class:
            self._store_used += 1
        else:
            self._app_used += 1
        return entry

    def merge(self, entry: MSHREntry, waiter: Waiter, wants_write: bool) -> None:
        """Attach a secondary miss to an in-flight entry."""
        entry.waiters.append(waiter)
        if wants_write and not entry.want_write():
            # A read miss already in flight must be followed by an
            # ownership upgrade once the (possibly SHARED) data lands.
            entry.upgrade_pending = True

    # -- completion --------------------------------------------------------
    def data_reply(self, line_addr: int, version: int, writable: bool, acks: int) -> MSHREntry:
        entry = self.entries[line_addr]
        entry.data_arrived = True
        entry.data_version = version
        entry.data_state_writable = writable
        entry.pending_acks += acks
        if writable and entry.upgrade_pending:
            entry.upgrade_pending = False
        return entry

    def inval_ack(self, line_addr: int) -> Optional[MSHREntry]:
        """An invalidation ack arrived (may precede the data reply)."""
        entry = self.entries.get(line_addr)
        if entry is None:
            return None
        entry.pending_acks -= 1
        return entry

    def free(self, line_addr: int) -> List[Waiter]:
        """Remove a completed entry, returning its waiters to wake."""
        entry = self.entries.pop(line_addr)
        if entry.protocol:
            self._proto_used -= 1
        elif entry.store_class:
            self._store_used -= 1
        else:
            self._app_used -= 1
        self.last_free = self.clock.now
        if self.on_free is not None:
            self.on_free()
        return entry.waiters

    def in_flight_line_addrs(self) -> List[int]:
        return list(self.entries)
