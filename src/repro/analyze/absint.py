"""Abstract interpretation of protocol-ISA handler programs.

One forward fixpoint per handler propagates an abstract register file
through the CFG and checks, at every uncached send, that the composed
header obeys the documented bit layout (``protocol/handlers.py``):

====== ================================================
bits   field
====== ================================================
0-7    message type (must be a valid ``MsgType`` value)
8-13   peer node (destination on outgoing headers)
16-21  requester node
24-29  invalidation-ack count
30     probe hit, 31 probe dirty
====== ================================================

The abstract value tracks three things: an exact constant when the
value is fully known (``LUI``, boot registers), a conservative bit
width otherwise, and — while the value is built by ``LUI``/``SLL``/
``OR`` chains — the list of *(shift, width)* fields OR-ed into it, so
header composition is checked field by field.

Modeling assumptions (deliberate, documented):

* ``POPC``/``CTZ`` results are 6 bits wide.  Sharer vectors hold at
  most 64 bits (64-node ceiling, ``NODE_FIELD_MASK``), the one
  sanctioned ``CTZ`` is guarded by the loop's ``BEQZ``, and ack counts
  cannot exceed the node count.
* ``ADDR`` is ``home_shift + 6`` bits wide (node field above the local
  offset), ``HDR`` is 32 bits, directory entries are 64 bits.

The same fixpoint performs definite-assignment: a register that is not
written on *every* path before a read is flagged, mirroring "reads of
never-written registers" bugs that would leak one handler's scratch
state into the next.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.network.messages import MsgType, virtual_network
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import (
    HDR_ACK_SHIFT,
    HDR_DIRTY_SHIFT,
    HDR_FOUND_SHIFT,
    HDR_REQ_SHIFT,
    HDR_SRC_SHIFT,
)
from repro.protocol.isa import (
    ADDR,
    DIR_BASE,
    ENTRY_SHIFT,
    HDR,
    HOME_SHIFT,
    LINE_SHIFT,
    LOCAL_MASK,
    NODE_ID,
    N_PROTOCOL_REGS,
    ZERO,
    Handler,
    POp,
)

from repro.analyze.cfg import (
    CFG,
    LoopProof,
    build_cfg,
    prove_loop_bounded,
    unreachable_indices,
    worst_case_instructions,
)
from repro.analyze.findings import SEV_INFO, Finding

#: Documented header fields: start bit -> width.
HEADER_FIELDS: Dict[int, int] = {
    HDR_SRC_SHIFT: 6,
    HDR_REQ_SHIFT: 6,
    HDR_ACK_SHIFT: 6,
    HDR_FOUND_SHIFT: 1,
    HDR_DIRTY_SHIFT: 1,
}

#: Valid message-type byte values.
_MSG_VALUES = frozenset(m.value for m in MsgType)

#: The paper's "six-instruction critical handler" bound (§3) applies
#: to requester-side reply handlers (VN1 dispatch targets).
CRITICAL_HANDLER_BUDGET = 6

_WIDTH_TOP = 64


@dataclass(frozen=True)
class AbsVal:
    """One abstract register value."""

    exact: Optional[int] = None
    width: int = _WIDTH_TOP
    #: Input lineage: subset of {"addr", "hdr", "dir", "boot", "undef"}.
    origins: frozenset = frozenset()
    #: OR-composed (shift, width) fields, kept while the value is a
    #: pure LUI/SLL/OR composition; () once collapsed.
    parts: Tuple[Tuple[int, int], ...] = ()
    const_bits: int = 0
    structured: bool = False  # parts/const_bits are meaningful

    @property
    def maybe_undef(self) -> bool:
        return "undef" in self.origins


def exact_val(value: int) -> AbsVal:
    return AbsVal(
        exact=value,
        width=max(value.bit_length(), 1),
        const_bits=value,
        structured=True,
    )


def input_val(width: int, origin: str) -> AbsVal:
    return AbsVal(exact=None, width=width, origins=frozenset((origin,)))


UNDEF = AbsVal(exact=None, width=_WIDTH_TOP, origins=frozenset(("undef",)))


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    if a == b:
        return a
    structured = (
        a.structured
        and b.structured
        and a.parts == b.parts
        and a.const_bits == b.const_bits
    )
    return AbsVal(
        exact=a.exact if a.exact == b.exact else None,
        width=max(a.width, b.width),
        origins=a.origins | b.origins,
        parts=a.parts if structured else (),
        const_bits=a.const_bits if structured else 0,
        structured=structured,
    )


def _collapsed(width: int, *sources: AbsVal) -> AbsVal:
    origins = frozenset().union(*(s.origins for s in sources))
    return AbsVal(exact=None, width=min(width, _WIDTH_TOP), origins=origins)


def _is_low_mask(imm: int) -> bool:
    return imm > 0 and (imm & (imm + 1)) == 0


def eval_alu(op: POp, a: AbsVal, b: AbsVal) -> AbsVal:
    """Abstract transfer for one ALU operation."""
    from repro.protocol.semantics import alu

    if a.exact is not None and b.exact is not None:
        return exact_val(alu(op, a.exact, b.exact))

    if op is POp.AND:
        if b.exact is not None and _is_low_mask(b.exact):
            return _collapsed(min(a.width, b.exact.bit_length()), a)
        if a.exact is not None and _is_low_mask(a.exact):
            return _collapsed(min(b.width, a.exact.bit_length()), b)
        return _collapsed(min(a.width, b.width), a, b)
    if op is POp.OR:
        merged = _or_compose(a, b)
        if merged is not None:
            return merged
        return _collapsed(max(a.width, b.width), a, b)
    if op is POp.XOR:
        return _collapsed(max(a.width, b.width), a, b)
    if op is POp.NOR:
        return _collapsed(_WIDTH_TOP, a, b)
    if op is POp.ADD:
        return _collapsed(max(a.width, b.width) + 1, a, b)
    if op is POp.SUB:
        return _collapsed(_WIDTH_TOP, a, b)
    if op is POp.SLL:
        if b.exact is not None:
            return _shifted_left(a, b.exact)
        return _collapsed(_WIDTH_TOP, a, b)
    if op is POp.SRL:
        if b.exact is not None:
            return _collapsed(max(a.width - b.exact, 0) or 1, a)
        return _collapsed(a.width, a, b)
    if op in (POp.SEQ, POp.SLT):
        return _collapsed(1, a, b)
    if op in (POp.POPC, POp.CTZ):
        # Modeling assumption: <= 64 bits set / 64-node ceiling.
        return _collapsed(6, a)
    if op is POp.LUI:
        raise ValueError("LUI handled by the caller")
    return _collapsed(_WIDTH_TOP, a, b)


def _shifted_left(a: AbsVal, amount: int) -> AbsVal:
    width = min(a.width + amount, _WIDTH_TOP)
    result = AbsVal(exact=None, width=width, origins=a.origins)
    if a.structured:
        return replace(
            result,
            parts=tuple((s + amount, w) for s, w in a.parts),
            const_bits=(a.const_bits << amount) & ((1 << _WIDTH_TOP) - 1),
            structured=True,
        )
    # A plain bounded value becomes a single positioned field.
    return replace(
        result, parts=((amount, a.width),), const_bits=0, structured=True
    )


def _or_compose(a: AbsVal, b: AbsVal) -> Optional[AbsVal]:
    """OR of two structured values keeps the field list."""
    if not (a.structured and b.structured):
        return None
    return AbsVal(
        exact=None,
        width=max(a.width, b.width),
        origins=a.origins | b.origins,
        parts=tuple(sorted(a.parts + b.parts)),
        const_bits=a.const_bits | b.const_bits,
        structured=True,
    )


# ----------------------------------------------------------------------
# Per-handler analysis
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AbsState:
    """Register file + SENDH latch, joined per CFG edge."""

    regs: Tuple[AbsVal, ...]
    #: 0 = no header latched, 1 = latched, 2 = maybe (joined).
    latched: int = 0


def _join_state(a: AbsState, b: AbsState) -> AbsState:
    regs = tuple(join(x, y) for x, y in zip(a.regs, b.regs))
    latched = a.latched if a.latched == b.latched else 2
    return AbsState(regs, latched)


def boot_state(layout: DirectoryLayout) -> AbsState:
    """Abstract register file at handler entry (post-boot)."""
    regs: List[AbsVal] = [UNDEF] * N_PROTOCOL_REGS
    regs[ZERO] = exact_val(0)
    regs[ADDR] = input_val(layout.home_shift + 6, "addr")
    regs[HDR] = input_val(32, "hdr")
    regs[HOME_SHIFT] = exact_val(layout.home_shift)
    regs[ENTRY_SHIFT] = exact_val(layout.entry_shift)
    regs[LOCAL_MASK] = exact_val(layout.local_mask)
    regs[NODE_ID] = input_val(6, "boot")
    regs[DIR_BASE] = exact_val(layout.dir_base)
    regs[LINE_SHIFT] = exact_val(layout.line_shift)
    return AbsState(tuple(regs))


class HandlerAnalysis:
    """Static analysis of one handler against one directory layout."""

    def __init__(self, handler: Handler, layout: DirectoryLayout) -> None:
        self.handler = handler
        self.layout = layout
        self.cfg: CFG = build_cfg(handler)
        self.findings: List[Finding] = []
        self.loop_proofs: Dict[Tuple[int, int], LoopProof] = {}
        self.worst_case: Optional[int] = None
        self._reported: Set[Tuple[str, int, str]] = set()

    # -- findings helpers ------------------------------------------------
    def _flag(
        self, code: str, index: int, message: str, **detail: object
    ) -> None:
        dedup = (code, index, message)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        info = {"index": index}
        info.update(detail)
        self.findings.append(
            Finding(
                "static",
                code,
                self.handler.name,
                f"{self.handler.name}[{index}]: {message}",
                detail=info,
            )
        )

    # -- driver ----------------------------------------------------------
    def run(self, vector_width: int) -> "HandlerAnalysis":
        self._check_structure(vector_width)
        self._fixpoint()
        if all(
            edge in self.loop_proofs for edge in self.cfg.back_edges
        ):
            self.worst_case = worst_case_instructions(
                self.cfg, self.loop_proofs
            )
        return self

    def _check_structure(self, vector_width: int) -> None:
        for index in unreachable_indices(self.cfg):
            self._flag(
                "unreachable",
                index,
                f"instruction {self.cfg.instrs[index].op.name} can never "
                "execute",
            )
        for edge in self.cfg.back_edges:
            proof = prove_loop_bounded(self.cfg, edge, vector_width)
            if proof is None:
                self._flag(
                    "unbounded-loop",
                    edge[0],
                    "backward branch is not the sanctioned clear-lowest-"
                    "set-bit sharer walk; termination unproven",
                )
            else:
                self.loop_proofs[edge] = proof

    # -- fixpoint ----------------------------------------------------------
    def _fixpoint(self) -> None:
        entry = boot_state(self.layout)
        states: Dict[int, AbsState] = {0: entry}
        work = [0]
        visits: Dict[int, int] = {}
        while work:
            index = work.pop()
            visits[index] = visits.get(index, 0) + 1
            if visits[index] > 200:  # safety valve; lattice is finite
                continue
            state = states[index]
            out = self._transfer(index, state)
            if out is None:
                continue
            for succ in self.cfg.succs[index]:
                old = states.get(succ)
                new = out if old is None else _join_state(old, out)
                if old is None or new != old:
                    states[succ] = new
                    work.append(succ)

    def _read(self, state: AbsState, index: int, reg: int) -> AbsVal:
        val = state.regs[reg]
        if val.maybe_undef:
            self._flag(
                "undefined-read",
                index,
                f"reads r{reg}, which is not written on every path "
                "to this instruction",
                register=reg,
            )
        return val

    def _transfer(self, index: int, state: AbsState) -> Optional[AbsState]:
        instr = self.cfg.instrs[index]
        op = instr.op
        regs = list(state.regs)
        latched = state.latched

        for reg in instr.reads():
            self._read(state, index, reg)

        if op is POp.TRAP:
            return None
        if op is POp.LUI:
            regs[instr.rd] = exact_val(instr.imm)
        elif op is POp.LD:
            regs[instr.rd] = input_val(_WIDTH_TOP, "dir")
        elif op is POp.ST:
            pass
        elif op in (POp.BEQZ, POp.BNEZ, POp.J):
            pass
        elif op is POp.SENDH:
            self._check_header(index, state.regs[instr.rs1])
            if latched == 1:
                self._flag(
                    "orphan-header",
                    index,
                    "SENDH overwrites a latched header that was never "
                    "sent (missing SENDA)",
                )
            latched = 1
        elif op is POp.SENDA:
            if latched == 0:
                self._flag(
                    "send-without-header",
                    index,
                    "SENDA with no latched header (missing SENDH) "
                    "would raise in the memory controller",
                )
            elif latched == 2:
                self._flag(
                    "send-without-header",
                    index,
                    "SENDA may execute with no latched header on some "
                    "path",
                )
            self._check_send_addr(index, state.regs[instr.rs1])
            latched = 0
        elif op is POp.SWITCH:
            regs[HDR] = input_val(32, "hdr")
        elif op is POp.LDCTXT:
            regs[ADDR] = input_val(self.layout.home_shift + 6, "addr")
        elif op in (POp.PROBE, POp.COMPLETE, POp.RESEND, POp.MEMWR, POp.AMO):
            pass
        else:
            a = state.regs[instr.rs1]
            b = (
                state.regs[instr.rs2]
                if instr.rs2 is not None
                else exact_val(instr.imm & ((1 << 64) - 1))
            )
            if op in (POp.POPC, POp.CTZ):
                result = eval_alu(op, a, exact_val(0))
            else:
                result = eval_alu(op, a, b)
            if instr.rd != ZERO:
                regs[instr.rd] = result
        return AbsState(tuple(regs), latched)

    # -- header checks -----------------------------------------------------
    def _check_header(self, index: int, val: AbsVal) -> None:
        if val.maybe_undef:
            return  # already reported as undefined-read
        if not val.structured:
            self._flag(
                "unverifiable-header",
                index,
                "header value is not a LUI/SLL/OR field composition; "
                "layout cannot be verified",
            )
            return
        const = val.const_bits if val.exact is None else val.exact
        if (const & 0xFF) not in _MSG_VALUES:
            self._flag(
                "bad-header",
                index,
                f"header type byte {const & 0xFF:#x} is not a valid "
                "MsgType",
                rule="type-byte",
            )
        extra = const >> 8
        if extra:
            self._flag(
                "bad-header",
                index,
                f"constant bits {extra << 8:#x} land outside the "
                "message-type byte",
                rule="const-bits",
            )
        for shift, width in val.parts:
            if shift < 8:
                self._flag(
                    "bad-header",
                    index,
                    f"field at bit {shift} overlaps the message-type "
                    "byte",
                    rule="field-overlap",
                )
            elif shift not in HEADER_FIELDS:
                self._flag(
                    "bad-header",
                    index,
                    f"field at bit {shift} does not start a documented "
                    "header field",
                    rule="field-shift",
                )
            elif width > HEADER_FIELDS[shift]:
                self._flag(
                    "bad-header",
                    index,
                    f"field at bit {shift} is {width} bits wide; the "
                    f"documented field holds {HEADER_FIELDS[shift]}",
                    rule="field-width",
                )

    def _check_send_addr(self, index: int, val: AbsVal) -> None:
        if val.maybe_undef:
            return
        if "addr" not in val.origins:
            self._flag(
                "bad-send-addr",
                index,
                "SENDA operand is not derived from the request address "
                "register",
            )


# ----------------------------------------------------------------------
# Pass driver
# ----------------------------------------------------------------------


def handler_side(name: str, bundle=None) -> str:
    """Which engine runs this handler: home, probed, or requester.

    ``bundle`` is a :class:`repro.protocol.registry.ProtocolBundle`
    whose dispatch tables classify the handler; None falls back to the
    default protocol's module-level tables.
    """
    from repro.protocol.handlers import (
        LOCAL_REMOTE_DISPATCH,
        NETWORK_DISPATCH,
        PROBE_DISPATCH,
    )

    if bundle is None:
        probe, local_remote, network = (
            PROBE_DISPATCH, LOCAL_REMOTE_DISPATCH, NETWORK_DISPATCH,
        )
    else:
        probe = bundle.probe_dispatch
        local_remote = bundle.local_remote_dispatch
        network = bundle.network_dispatch
    if name in probe.values():
        return "probed"
    if name in local_remote.values():
        return "requester"
    for mtype, target in network.items():
        if target != name:
            continue
        if virtual_network(mtype) == 1:
            return "requester"
        if mtype in (MsgType.INT_SHARED, MsgType.INT_EXCL, MsgType.INVAL):
            return "probed"
        return "home"
    return "home"


def run_static_pass(
    table,
    layout: Optional[DirectoryLayout] = None,
    vector_width: int = 32,
    bundle=None,
) -> Tuple[List[Finding], List[Dict[str, object]]]:
    """Run the static pass over every handler in ``table``.

    Returns ``(findings, inventory)`` where inventory rows carry
    ``name, side, instrs, worst_case`` for the docs generator.
    """
    layout = layout or DirectoryLayout(
        local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4
    )
    findings: List[Finding] = []
    inventory: List[Dict[str, object]] = []
    for name in sorted(table.by_name):
        handler = table[name]
        analysis = HandlerAnalysis(handler, layout).run(vector_width)
        findings.extend(analysis.findings)
        side = handler_side(name, bundle)
        wc = analysis.worst_case
        inventory.append(
            {
                "name": name,
                "side": side,
                "instrs": len(handler),
                "worst_case": wc,
                "loops": len(analysis.cfg.back_edges),
            }
        )
        if wc is not None:
            findings.append(
                Finding(
                    "static",
                    "worst-case",
                    name,
                    f"{name}: worst case {wc} instructions ({side} side)",
                    severity=SEV_INFO,
                    detail={"worst_case": wc, "side": side},
                )
            )
        if (
            side == "requester"
            and name.startswith("h_reply")
            and wc is not None
            and wc > CRITICAL_HANDLER_BUDGET
        ):
            findings.append(
                Finding(
                    "static",
                    "critical-handler-over-budget",
                    name,
                    f"{name}: worst case {wc} instructions exceeds the "
                    f"paper's {CRITICAL_HANDLER_BUDGET}-instruction "
                    "critical-handler budget",
                    detail={"worst_case": wc},
                )
            )
    return findings, inventory
