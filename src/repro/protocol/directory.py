"""Directory entry layout and protocol address-space map.

Each home node keeps one directory entry per local cache line.  The
paper uses 32-bit entries with a 16-bit sharer vector up to 16 nodes
and 64-bit entries with a 32-bit vector at 32 nodes; our layout
reproduces that sizing:

====== =====================================================
bits   field
====== =====================================================
0-2    state: UNOWNED / SHARED / EXCLUSIVE / BUSY_SHARED /
       BUSY_EXCLUSIVE
3-8    owner (EXCLUSIVE) or intervention target (BUSY)
9-14   waiter: the requester that will receive ownership when
       the BUSY transaction resolves
15     reserved flag
16+    sharer bit-vector (16 or 32 bits)
====== =====================================================

The handlers manipulate these fields with shifts/masks/popcount in the
protocol ISA; this module provides the same encoding for Python-side
tooling (boot, the invariant checks, tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.caches.hierarchy import PROTO_SPACE_BIT
from repro.common.errors import ConfigError
from repro.common.params import MachineParams

# Directory states.
UNOWNED = 0
SHARED = 1
EXCLUSIVE = 2
BUSY_SHARED = 3
BUSY_EXCLUSIVE = 4

STATE_MASK = 0x7
OWNER_SHIFT = 3
OWNER_MASK = 0x3F
WAITER_SHIFT = 9
WAITER_MASK = 0x3F
#: "XFER debt": set by h_put's late arm when a writeback resolves a
#: BUSY transaction whose XFER revision is still in flight.  While
#: set, the entry is otherwise UNOWNED (``invariants.check_entry``
#: enforces it) and h_get/h_getx NACK, so no
#: look-alike transaction can start; h_xfer consumes the bit instead
#: of interpreting the stale revision.
XFER_DEBT_SHIFT = 15
VECTOR_SHIFT = 16

STATE_NAMES = {
    UNOWNED: "UNOWNED",
    SHARED: "SHARED",
    EXCLUSIVE: "EXCLUSIVE",
    BUSY_SHARED: "BUSY_SHARED",
    BUSY_EXCLUSIVE: "BUSY_EXCLUSIVE",
}

#: Protocol-space regions (offsets below PROTO_SPACE_BIT).
CODE_BASE = PROTO_SPACE_BIT | 0x0000_0000
DIR_BASE_OFFSET = 0x1000_0000
SCRATCH_BASE_OFFSET = 0x3000_0000


def encode(state: int, owner: int = 0, waiter: int = 0, vector: int = 0) -> int:
    return (
        state
        | (owner << OWNER_SHIFT)
        | (waiter << WAITER_SHIFT)
        | (vector << VECTOR_SHIFT)
    )


def state_of(entry: int) -> int:
    return entry & STATE_MASK


def owner_of(entry: int) -> int:
    return (entry >> OWNER_SHIFT) & OWNER_MASK


def waiter_of(entry: int) -> int:
    return (entry >> WAITER_SHIFT) & WAITER_MASK


def vector_of(entry: int) -> int:
    return entry >> VECTOR_SHIFT


def xfer_debt(entry: int) -> bool:
    return bool((entry >> XFER_DEBT_SHIFT) & 1)


def sharers_of(entry: int) -> List[int]:
    vec = vector_of(entry)
    out = []
    node = 0
    while vec:
        if vec & 1:
            out.append(node)
        vec >>= 1
        node += 1
    return out


def describe(entry: int) -> str:
    debt = " xfer-debt" if xfer_debt(entry) else ""
    return (
        f"{STATE_NAMES.get(state_of(entry), '?')} owner={owner_of(entry)} "
        f"waiter={waiter_of(entry)} sharers={sharers_of(entry)}{debt}"
    )


@dataclass(frozen=True)
class DirectoryLayout:
    """Address arithmetic shared by handlers, boot code, and the MC."""

    local_memory_bytes: int
    line_bytes: int
    entry_bytes: int

    def __post_init__(self) -> None:
        if self.local_memory_bytes & (self.local_memory_bytes - 1):
            raise ConfigError("local memory size must be a power of two")
        if self.entry_bytes not in (4, 8):
            raise ConfigError(f"directory entries are 4 or 8 bytes: {self.entry_bytes}")

    @classmethod
    def for_machine(cls, mp: MachineParams) -> "DirectoryLayout":
        return cls(
            local_memory_bytes=mp.local_memory_bytes,
            line_bytes=mp.line_bytes,
            entry_bytes=mp.directory_bits // 8,
        )

    @property
    def home_shift(self) -> int:
        return self.local_memory_bytes.bit_length() - 1

    @property
    def line_shift(self) -> int:
        return self.line_bytes.bit_length() - 1

    @property
    def entry_shift(self) -> int:
        return self.entry_bytes.bit_length() - 1

    @property
    def local_mask(self) -> int:
        return self.local_memory_bytes - 1

    @property
    def dir_base(self) -> int:
        return PROTO_SPACE_BIT | DIR_BASE_OFFSET

    def home_of(self, addr: int) -> int:
        return addr >> self.home_shift

    def line_addr(self, addr: int) -> int:
        return addr >> self.line_shift << self.line_shift

    def dir_entry_addr(self, line_addr: int) -> int:
        """Protocol-space address of the directory entry for a line.

        This is the arithmetic the handlers perform with SRL/SLL/ADD:
        ``DIR_BASE + ((addr & LOCAL_MASK) >> LINE_SHIFT << ENTRY_SHIFT)``.
        """
        local = line_addr & self.local_mask
        return self.dir_base + ((local >> self.line_shift) << self.entry_shift)

    def directory_lines(self, home: int, pmem: Dict[int, int]) -> List[int]:
        """The lines whose directory entries ``home``'s protocol memory
        holds: :meth:`dir_entry_addr` inverted."""
        base = self.dir_base
        end = PROTO_SPACE_BIT | SCRATCH_BASE_OFFSET
        node_base = home << self.home_shift
        return [
            node_base | (addr - base) >> self.entry_shift << self.line_shift
            for addr in pmem
            if base <= addr < end
        ]
