"""Protocol-thread extensions beyond basic cache coherence.

The paper's §1 and §6 argue that SMTp's real power is that the
protocol thread is *programmable*: "schemes such as active memory
address re-mapping or fault tolerance ... can now be implemented as
protocol threads."  This module demonstrates the mechanism with an
**active-memory remote-operation** extension:

* An application issues an uncached fetch-and-op to any word.
* The request travels to the word's *home node* (one ``AM_OP``
  message), where the protocol thread (or the PP engine — extensions
  run identically on every machine model) executes a handler that
  performs the read-modify-write against home memory and replies with
  the old value.
* No cache line ever moves: under contention (shared counters,
  ticket locks, reductions) this wins over ordinary atomics, which
  bounce an exclusive line between nodes.

Handlers are ordinary protocol-ISA programs assembled into the same
handler table as the coherence protocol; installing the extension
just adds table entries and dispatch-map rows — exactly the paper's
"let the business of complex protocols be handled in software" story.

Usage::

    # machines install it automatically; applications use:
    k.atomic(addr, "am_fai", 1)       # remote fetch-and-increment
    old = yield AWAIT
"""

from __future__ import annotations

from repro.network.messages import MsgType
from repro.protocol.handlers import (
    HDR_REQ_SHIFT,
    NODE_FIELD_MASK,
    NETWORK_DISPATCH,
    compose_send,
)
from repro.protocol.isa import POp, T3, Handler, HandlerBuilder, HandlerTable, PInstr

#: Active-memory op codes (imm of the AMO protocol instruction and the
#: ``operand``-encoded op selector of AM_OP messages).
AM_FAI = 0  # fetch-and-add
AM_SWAP = 1
AM_TAS = 2

#: Application-visible atomic_op names handled remotely.
AM_OPS = {"am_fai": AM_FAI, "am_swap": AM_SWAP, "am_tas": AM_TAS}


def _amo_instr(h: HandlerBuilder) -> None:
    """Emit the AMO uncached op (hardware RMW against home memory).

    The op selector and operand ride in the request message; the MC
    stashes the old value in the handler context for the reply send.
    """
    h.instrs.append(PInstr(POp.AMO))


def build_h_am_op() -> Handler:
    """Home-side handler: perform the RMW, reply with the old value."""
    h = HandlerBuilder("h_am_op")
    h.srli(T3, 2, HDR_REQ_SHIFT)  # requester from HDR (r2)
    h.andi(T3, T3, NODE_FIELD_MASK)
    _amo_instr(h)
    compose_send(h, MsgType.AM_REPLY, dest_reg=T3, req_reg=T3)
    h.done()
    return h.build()


def build_h_am_reply() -> Handler:
    """Requester-side handler: deliver the value to the waiting op."""
    h = HandlerBuilder("h_am_reply")
    h.complete()
    h.done()
    return h.build()


def install(table: HandlerTable) -> None:
    """Add the extension's handlers and dispatch rows (idempotent)."""
    if "h_am_op" not in table:
        table.place(build_h_am_op())
        table.place(build_h_am_reply())
    NETWORK_DISPATCH.setdefault(MsgType.AM_OP, "h_am_op")
    NETWORK_DISPATCH.setdefault(MsgType.AM_REPLY, "h_am_reply")


def apply_am_op(op_code: int, old: int, operand: int) -> int:
    """The RMW semantics the AMO hardware op performs at home."""
    if op_code == AM_FAI:
        return old + operand
    if op_code == AM_SWAP:
        return operand
    if op_code == AM_TAS:
        return 1
    raise ValueError(f"unknown active-memory op {op_code}")
