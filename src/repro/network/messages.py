"""Coherence message types and the Message record.

Virtual-network assignment (Table 3: four virtual networks, the
protocol uses three) follows the deadlock-free sink ordering:

* VN0 — requests (GET, GETX, UPGRADE); may generate VN1/VN2 traffic.
* VN1 — replies (data, acks, NACKs); sunk unconditionally.
* VN2 — interventions, invalidations, writebacks and revision
  messages; generate only VN1 traffic.
* VN3 — unused by the protocol (reserved for I/O, as in the paper's
  platform).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional


class MsgType(enum.Enum):
    # VN0: requests.
    GET = enum.auto()  # read miss
    GETX = enum.auto()  # write miss
    UPGRADE = enum.auto()  # write to a SHARED copy

    # VN1: replies.
    DATA_SHARED = enum.auto()
    DATA_EXCL = enum.auto()
    UPGRADE_ACK = enum.auto()
    NACK = enum.auto()  # home busy: retry
    NACK_UPGRADE = enum.auto()  # upgrade lost a race: retry as GETX
    INV_ACK = enum.auto()  # invalidation ack, sent to the requester
    WB_ACK = enum.auto()  # writeback accepted

    # VN2: interventions / writebacks / revisions.
    INT_SHARED = enum.auto()  # downgrade the owner, forward data
    INT_EXCL = enum.auto()  # invalidate the owner, transfer ownership
    INVAL = enum.auto()  # invalidate a sharer
    PUT = enum.auto()  # writeback (dirty or clean-exclusive hint)
    SWB = enum.auto()  # sharing writeback: downgrade revision to home
    XFER = enum.auto()  # ownership-transfer revision to home
    INT_NACK = enum.auto()  # intervention found no copy (PUT race)

    # Active-memory extension (repro.protocol.extensions): remote
    # operations executed by the home's protocol thread.
    AM_OP = enum.auto()  # uncached fetch-and-op request
    AM_REPLY = enum.auto()  # result value (in .version)

    # Node-internal dispatch types (never traverse the network).
    L2_PROBE_REPLY = enum.auto()  # local L2 answered an intervention probe


_VN0 = frozenset({MsgType.GET, MsgType.GETX, MsgType.UPGRADE, MsgType.AM_OP})
_VN2 = frozenset(
    {
        MsgType.INT_SHARED,
        MsgType.INT_EXCL,
        MsgType.INVAL,
        MsgType.PUT,
        MsgType.SWB,
        MsgType.XFER,
        MsgType.INT_NACK,
    }
)

#: Message types that carry a copy of the line's data.
DATA_BEARING = frozenset(
    {MsgType.DATA_SHARED, MsgType.DATA_EXCL, MsgType.PUT, MsgType.SWB, MsgType.XFER}
)

#: Replies: one a node sends itself is applied to its own hierarchy
#: directly, never re-queued for dispatch (the controller's
#: ``_deliver_local``).
REPLY_TYPES = frozenset(
    {
        MsgType.DATA_SHARED,
        MsgType.DATA_EXCL,
        MsgType.UPGRADE_ACK,
        MsgType.NACK,
        MsgType.NACK_UPGRADE,
        MsgType.INV_ACK,
        MsgType.WB_ACK,
        MsgType.AM_REPLY,
    }
)

#: The L2 probe each intervention or invalidation asks of the
#: hierarchy: ownership transfer must yield data (``inval_owner``).
PROBE_KIND = {
    MsgType.INT_SHARED: "downgrade",
    MsgType.INT_EXCL: "inval_owner",
    MsgType.INVAL: "inval",
}

#: Decode a handler header's type field (``header_type``).
MTYPE_BY_VALUE = {m.value: m for m in MsgType}

#: Message types whose home-side handler wants the line's memory data
#: fetched in parallel with handler dispatch (paper §2.1).
EXPECTS_MEMORY_DATA = frozenset({MsgType.GET, MsgType.GETX})


def request_type(upgrade: bool, write: bool) -> MsgType:
    """The request a miss sends home: UPGRADE for a write to a pinned
    SHARED copy, GETX for any other write, GET for a read."""
    if upgrade:
        return MsgType.UPGRADE
    return MsgType.GETX if write else MsgType.GET


def virtual_network(mtype: MsgType) -> int:
    if mtype in _VN0:
        return 0
    if mtype in _VN2:
        return 2
    return 1


#: Monotonic message-uid source.
_msg_ids = itertools.count().__next__


@dataclass
class Message:
    """One coherence transaction message."""

    mtype: MsgType
    addr: int  # line address
    src: int
    dest: int
    requester: int = -1  # original requester for 3-hop flows
    version: int = 0  # data payload token
    dirty: bool = False
    acks: int = 0  # invalidation-ack count carried by replies
    found: bool = False  # probe replies: the L2 had the line
    probe_kind: Optional["MsgType"] = None  # probe replies: original kind
    # Local-miss descriptors reuse Message; they carry the miss kind.
    uid: int = field(default_factory=_msg_ids)

    @property
    def vn(self) -> int:
        return virtual_network(self.mtype)

    @property
    def carries_data(self) -> bool:
        return self.mtype in DATA_BEARING

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message({self.mtype.name}, addr={self.addr:#x}, "
            f"{self.src}->{self.dest}, req={self.requester}, v{self.version})"
        )
