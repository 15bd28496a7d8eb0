"""The protocol-thread instruction set and its assembler.

Coherence handlers are *programs*: sequences of MIPS-flavoured ALU,
load/store, branch, and uncached memory-controller operations, exactly
as in FLASH-style programmable protocol engines and the paper's SMTp
protocol thread.  The same programs execute on either

* the SMTp protocol thread (instructions flow through the real SMT
  pipeline, renamed and speculated like any other thread), or
* the embedded dual-issue protocol processor of the non-SMTp machine
  models (:mod:`repro.memctrl.ppengine`).

Register conventions (all 32 logical registers are initialized by the
protocol boot sequence so they stay mapped — paper §2.2):

====  ==========================================================
r0    hardwired zero
r1    ADDR — line address of the current request (set by ldctxt)
r2    HDR — header of the current request (set by switch)
r3+   scratch (T0..)
r26   HOME_SHIFT — log2(per-node local memory)
r27   ENTRY_SHIFT — log2(directory entry bytes)
r28   LOCAL_MASK — per-node local-memory byte mask
r29   NODE_ID
r30   DIR_BASE — base of the directory region in protocol space
r31   LINE_SHIFT — log2(coherence line size)
====  ==========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import ConfigError

if TYPE_CHECKING:  # circular at runtime: compile.py imports this module
    from repro.protocol.compile import CompiledHandler

# Register aliases.
ZERO = 0
ADDR = 1
HDR = 2
T0, T1, T2, T3, T4, T5, T6, T7 = 3, 4, 5, 6, 7, 8, 9, 10
HOME_SHIFT = 26
ENTRY_SHIFT = 27
LOCAL_MASK = 28
NODE_ID = 29
DIR_BASE = 30
LINE_SHIFT = 31

N_PROTOCOL_REGS = 32

#: Byte size of one encoded protocol instruction (for I-cache traffic).
PINSTR_BYTES = 4


class POp(enum.IntEnum):
    # An IntEnum: opcode sets and dispatch dicts are consulted on every
    # interpreted instruction, and IntEnum members hash/compare at C
    # speed.  __str__/__format__ stay the Enum forms ("POp.ADD").
    __str__ = enum.Enum.__str__
    __format__ = enum.Enum.__format__

    # ALU, register-register or register-immediate (imm is not None).
    ADD = enum.auto()
    SUB = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SLL = enum.auto()
    SRL = enum.auto()
    NOR = enum.auto()
    SEQ = enum.auto()  # rd = (rs1 == rs2/imm)
    SLT = enum.auto()
    POPC = enum.auto()  # population count (special bit-manipulation op)
    CTZ = enum.auto()  # count trailing zeros (special op)
    LUI = enum.auto()  # rd = imm (load constant)

    # Protocol-memory access (through L1D/L2 or the directory cache).
    LD = enum.auto()
    ST = enum.auto()

    # Control flow.
    BEQZ = enum.auto()
    BNEZ = enum.auto()
    J = enum.auto()

    # Uncached operations (execute non-speculatively at graduation).
    SENDH = enum.auto()  # latch outgoing header register
    SENDA = enum.auto()  # latch address register and launch the send
    PROBE = enum.auto()  # ask the local L2 to inval/downgrade a line
    COMPLETE = enum.auto()  # deliver the current reply to the MSHRs
    RESEND = enum.auto()  # retry the NACKed request after backoff
    MEMWR = enum.auto()  # write the message's data payload to memory
    AMO = enum.auto()  # active-memory RMW at home (extensions module)
    TRAP = enum.auto()  # impossible protocol state: abort simulation

    # Handler sequencing (the last two instructions of every handler).
    SWITCH = enum.auto()  # uncached load of the next request's header
    LDCTXT = enum.auto()  # uncached load of the next request's address


UNCACHED_OPS = frozenset(
    {
        POp.SENDH,
        POp.SENDA,
        POp.PROBE,
        POp.COMPLETE,
        POp.RESEND,
        POp.MEMWR,
        POp.AMO,
        POp.TRAP,
        POp.SWITCH,
        POp.LDCTXT,
    }
)

BRANCH_OPS = frozenset({POp.BEQZ, POp.BNEZ, POp.J})

#: PROBE kinds (imm field of the PROBE op).
PROBE_INVAL = 0
PROBE_DOWNGRADE = 1

#: RESEND modes.
RESEND_SAME = 0  # retry the original request kind
RESEND_AS_GETX = 1  # a NACKed upgrade retries as a full GETX


@dataclass
class PInstr:
    """One protocol instruction.

    ``imm`` doubles as the second ALU operand when ``rs2`` is None, the
    load/store displacement, and the sub-opcode of uncached ops.
    ``target`` is the branch destination as an instruction index within
    the handler (resolved by the assembler).
    """

    op: POp
    rd: int = 0
    rs1: int = 0
    rs2: Optional[int] = None
    imm: int = 0
    target: int = -1
    label: Optional[str] = None  # unresolved branch target name

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_uncached(self) -> bool:
        return self.op in UNCACHED_OPS

    @property
    def is_memory(self) -> bool:
        return self.op in (POp.LD, POp.ST)

    def reads(self) -> List[int]:
        op = self.op
        if op in (POp.LUI, POp.J, POp.SWITCH, POp.LDCTXT, POp.TRAP):
            return []
        if op in (POp.COMPLETE, POp.RESEND, POp.MEMWR, POp.AMO):
            return []
        if op in (POp.BEQZ, POp.BNEZ):
            return [self.rs1]
        if op in (POp.SENDH, POp.SENDA, POp.PROBE):
            return [self.rs1]
        if op == POp.LD:
            return [self.rs1]
        if op == POp.ST:
            return [self.rd, self.rs1]  # rd = value source, rs1 = base
        if op in (POp.POPC, POp.CTZ):
            return [self.rs1]
        if self.rs2 is not None:
            return [self.rs1, self.rs2]
        return [self.rs1]

    def writes(self) -> Optional[int]:
        op = self.op
        if op in (POp.LD, POp.LUI) or (
            op not in UNCACHED_OPS and op not in BRANCH_OPS and op != POp.ST
        ):
            return self.rd if self.rd != ZERO else None
        if op == POp.SWITCH:
            return HDR
        if op == POp.LDCTXT:
            return ADDR
        return None


@dataclass
class Handler:
    """An assembled handler: a name, a PC, and its instructions."""

    name: str
    pc: int = 0
    instrs: List[PInstr] = field(default_factory=list)
    #: Threaded-code programs, compiled on first use and invalidated on
    #: re-placement (see :mod:`repro.protocol.compile`).
    compiled: Optional["CompiledHandler"] = field(
        default=None, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.instrs)

    def pc_of(self, index: int) -> int:
        return self.pc + index * PINSTR_BYTES


class HandlerBuilder:
    """Fluent builder for one handler's instruction list."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.instrs: List[PInstr] = []
        self._labels: Dict[str, int] = {}

    # -- ALU helpers -----------------------------------------------------
    def _alu(self, op: POp, rd: int, rs1: int, rs2=None, imm: int = 0) -> None:
        if isinstance(rs2, int):
            self.instrs.append(PInstr(op, rd=rd, rs1=rs1, rs2=rs2))
        else:
            self.instrs.append(PInstr(op, rd=rd, rs1=rs1, rs2=None, imm=imm))

    def add(self, rd, rs1, rs2):
        self._alu(POp.ADD, rd, rs1, rs2)

    def addi(self, rd, rs1, imm):
        self._alu(POp.ADD, rd, rs1, None, imm)

    def sub(self, rd, rs1, rs2):
        self._alu(POp.SUB, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        self._alu(POp.AND, rd, rs1, rs2)

    def andi(self, rd, rs1, imm):
        self._alu(POp.AND, rd, rs1, None, imm)

    def or_(self, rd, rs1, rs2):
        self._alu(POp.OR, rd, rs1, rs2)

    def ori(self, rd, rs1, imm):
        self._alu(POp.OR, rd, rs1, None, imm)

    def xori(self, rd, rs1, imm):
        self._alu(POp.XOR, rd, rs1, None, imm)

    def nor(self, rd, rs1, rs2):
        self._alu(POp.NOR, rd, rs1, rs2)

    def sll(self, rd, rs1, rs2):
        self._alu(POp.SLL, rd, rs1, rs2)

    def slli(self, rd, rs1, imm):
        self._alu(POp.SLL, rd, rs1, None, imm)

    def sllv(self, rd, rs1, rs2_reg):
        self._alu(POp.SLL, rd, rs1, rs2_reg)

    def srl(self, rd, rs1, rs2):
        self._alu(POp.SRL, rd, rs1, rs2)

    def srli(self, rd, rs1, imm):
        self._alu(POp.SRL, rd, rs1, None, imm)

    def srlv(self, rd, rs1, rs2_reg):
        self._alu(POp.SRL, rd, rs1, rs2_reg)

    def seqi(self, rd, rs1, imm):
        self._alu(POp.SEQ, rd, rs1, None, imm)

    def seq(self, rd, rs1, rs2):
        self._alu(POp.SEQ, rd, rs1, rs2)

    def popc(self, rd, rs1):
        self._alu(POp.POPC, rd, rs1)

    def ctz(self, rd, rs1):
        self._alu(POp.CTZ, rd, rs1)

    def li(self, rd, imm):
        self.instrs.append(PInstr(POp.LUI, rd=rd, imm=imm))

    # -- memory ----------------------------------------------------------
    def ld(self, rd, base, offset=0):
        self.instrs.append(PInstr(POp.LD, rd=rd, rs1=base, imm=offset))

    def st(self, rsrc, base, offset=0):
        self.instrs.append(PInstr(POp.ST, rd=rsrc, rs1=base, imm=offset))

    # -- control flow ------------------------------------------------------
    def label(self, name: str) -> None:
        if name in self._labels:
            raise ConfigError(f"{self.name}: duplicate label {name}")
        self._labels[name] = len(self.instrs)

    def beqz(self, rs, label: str):
        self.instrs.append(PInstr(POp.BEQZ, rs1=rs, label=label))

    def bnez(self, rs, label: str):
        self.instrs.append(PInstr(POp.BNEZ, rs1=rs, label=label))

    def j(self, label: str):
        self.instrs.append(PInstr(POp.J, label=label))

    # -- uncached ----------------------------------------------------------
    def sendh(self, rhdr):
        self.instrs.append(PInstr(POp.SENDH, rs1=rhdr))

    def senda(self, raddr):
        self.instrs.append(PInstr(POp.SENDA, rs1=raddr))

    def probe(self, raddr, kind: int):
        self.instrs.append(PInstr(POp.PROBE, rs1=raddr, imm=kind))

    def complete(self):
        self.instrs.append(PInstr(POp.COMPLETE))

    def resend(self, mode: int = RESEND_SAME):
        self.instrs.append(PInstr(POp.RESEND, imm=mode))

    def memwr(self):
        self.instrs.append(PInstr(POp.MEMWR))

    def trap(self, code: int = 0):
        self.instrs.append(PInstr(POp.TRAP, imm=code))

    def done(self):
        """Terminate the handler: every handler ends switch; ldctxt."""
        self.instrs.append(PInstr(POp.SWITCH, rd=HDR))
        self.instrs.append(PInstr(POp.LDCTXT, rd=ADDR))

    # -- assembly ----------------------------------------------------------
    def build(self) -> Handler:
        if not self.instrs or self.instrs[-1].op is not POp.LDCTXT:
            raise ConfigError(f"{self.name}: handler must end with done()")
        for i, instr in enumerate(self.instrs):
            if instr.label is not None:
                if instr.label not in self._labels:
                    raise ConfigError(
                        f"{self.name}: undefined label {instr.label!r}"
                    )
                instr.target = self._labels[instr.label]
        return Handler(self.name, instrs=self.instrs)


class HandlerTable:
    """All assembled handlers, placed in protocol code space."""

    def __init__(self, code_base: int) -> None:
        self.code_base = code_base
        self.by_name: Dict[str, Handler] = {}
        self.by_pc: Dict[int, Handler] = {}
        self._next_pc = code_base

    def place(self, handler: Handler) -> Handler:
        handler.pc = self._next_pc
        # Align each handler to a 64-byte I-cache line boundary.
        size = len(handler.instrs) * PINSTR_BYTES
        self._next_pc += (size + 63) // 64 * 64
        self.by_name[handler.name] = handler
        self.by_pc[handler.pc] = handler
        return handler

    def __getitem__(self, name: str) -> Handler:
        return self.by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def total_instructions(self) -> int:
        return sum(len(h) for h in self.by_name.values())
