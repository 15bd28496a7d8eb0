"""Handler dispatch: contexts and handler-name resolution.

The handler dispatch unit (paper §2.1, Figure 1) selects a message
from the Local Miss Interface or the Network Interface, extracts its
address and header, initiates the memory access in parallel when the
transaction expects a cache-line reply, and looks up the handler PC.
"""

from __future__ import annotations

from typing import Optional

from repro.network.messages import Message, MsgType
from repro.protocol.handlers import (
    LOCAL_REMOTE_DISPATCH,
    NETWORK_DISPATCH,
    make_header,
)
from repro.protocol.isa import Handler


class HandlerContext:
    """Everything one handler invocation needs from the hardware."""

    __slots__ = (
        "msg",
        "handler",
        "header",
        "out_header",
        "data_ready_at",
        "probe_kind",
        "dispatched_at",
        "index",
        "am_result",
    )

    def __init__(self, msg: Message, handler: Handler, header: int) -> None:
        self.msg = msg
        self.handler = handler
        #: Incoming header word (becomes the thread's HDR register).
        self.header = header
        #: Outgoing header latched by SENDH, consumed by SENDA.
        self.out_header: Optional[int] = None
        #: Cycle at which memory data for this transaction is available.
        self.data_ready_at = 0
        self.probe_kind: Optional[MsgType] = None
        self.dispatched_at = 0
        #: Dispatch order (used by the SMTp port's SWITCH handshake).
        self.index = -1
        #: Old value captured by an active-memory AMO (extensions).
        self.am_result = 0


def handler_name_for(msg: Message, node_id: int, bundle=None) -> str:
    """Resolve which handler services ``msg`` at ``node_id``.

    ``bundle`` is the machine's :class:`repro.protocol.registry.
    ProtocolBundle`; None falls back to the default protocol's
    module-level dispatch tables (memory-only harnesses and tests).
    """
    if bundle is None:
        network, local_remote = NETWORK_DISPATCH, LOCAL_REMOTE_DISPATCH
    else:
        network = bundle.network_dispatch
        local_remote = bundle.local_remote_dispatch
    if msg.mtype is MsgType.L2_PROBE_REPLY:
        raise ValueError("probe replies resolve via their probe kind")
    if msg.mtype in (MsgType.GET, MsgType.GETX, MsgType.UPGRADE):
        if msg.dest == node_id:
            return network[msg.mtype]
        return local_remote[msg.mtype]
    return network[msg.mtype]


def incoming_header(msg: Message) -> int:
    """Compose the HDR register value the handler will see."""
    return make_header(
        msg.mtype,
        peer=msg.src,
        requester=msg.requester,
        found=msg.found,
        dirty=msg.dirty,
    )
