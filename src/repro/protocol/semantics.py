"""Functional semantics of protocol instructions.

One interpreter serves three clients:

* :class:`FunctionalRunner`, which runs whole handlers for unit tests
  and ``repro analyze`` (the model checker and dispatch enumerator),
* the SMTp frontend's *shadow interpreter*, which resolves protocol
  register values and branch outcomes at fetch time (the pipeline then
  models timing only — see DESIGN.md),
* the embedded dual-issue protocol processor of the non-SMTp models.

The last two run compiled threaded code by default
(:mod:`repro.protocol.compile`) and this interpreter under
``REPRO_INTERP=1``; the compiled programs evaluate ALU ops through the
same :data:`ALU` table.

Arithmetic is 64-bit unsigned, matching the simulated engine width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.common.errors import ProtocolError
from repro.protocol.isa import PInstr, POp

MASK64 = (1 << 64) - 1

#: Each ALU op's value function of its two resolved operands (POPC and
#: CTZ ignore ``b``; :func:`step` passes 0).
ALU: Dict[POp, Callable[[int, int], int]] = {
    POp.ADD: lambda a, b: (a + b) & MASK64,
    POp.SUB: lambda a, b: (a - b) & MASK64,
    POp.AND: lambda a, b: a & b,
    POp.OR: lambda a, b: a | b,
    POp.XOR: lambda a, b: a ^ b,
    POp.NOR: lambda a, b: ~(a | b) & MASK64,
    POp.SLL: lambda a, b: (a << (b & 63)) & MASK64,
    POp.SRL: lambda a, b: a >> (b & 63),
    POp.SEQ: lambda a, b: 1 if a == b else 0,
    POp.SLT: lambda a, b: 1 if a < b else 0,
    POp.POPC: lambda a, b: bin(a).count("1"),
    POp.CTZ: lambda a, b: (a & -a).bit_length() - 1 if a else 64,
}


def alu(op: POp, a: int, b: int) -> int:
    fn = ALU.get(op)
    if fn is None:
        raise ValueError(f"not an ALU op: {op}")
    return fn(a, b)


@dataclass
class Step:
    """Result of functionally stepping one instruction.

    ``next_index`` is the instruction index to execute next within the
    handler; ``uncached`` marks operations whose *effects* the caller
    must perform through the memory controller; ``mem_addr`` is set for
    LD/ST (the resolved protocol-memory address); ``value`` is the
    register result (LD/ALU) or the ST source value.
    """

    next_index: int
    dest: Optional[int] = None
    value: int = 0
    taken: bool = False
    uncached: bool = False
    mem_addr: Optional[int] = None
    is_store: bool = False


def step(
    instr: PInstr,
    index: int,
    regs: list,
    pmem_read: Callable[[int], int],
) -> Step:
    """Functionally execute ``instr`` (the instruction at ``index``).

    Register writes are *returned*, not applied — the caller owns the
    register file and store/uncached side effects.  ``SWITCH`` and
    ``LDCTXT`` are returned as uncached markers; the dispatch unit
    supplies their values.
    """
    op = instr.op
    if op is POp.LUI:
        return Step(index + 1, dest=instr.rd, value=instr.imm & MASK64)
    if op is POp.LD:
        addr = (regs[instr.rs1] + instr.imm) & MASK64
        return Step(index + 1, dest=instr.rd, value=pmem_read(addr), mem_addr=addr)
    if op is POp.ST:
        addr = (regs[instr.rs1] + instr.imm) & MASK64
        return Step(
            index + 1, value=regs[instr.rd], mem_addr=addr, is_store=True
        )
    if op is POp.BEQZ or op is POp.BNEZ:
        taken = (regs[instr.rs1] == 0) == (op is POp.BEQZ)
        return Step(instr.target if taken else index + 1, taken=taken)
    if op is POp.J:
        return Step(instr.target, taken=True)
    if instr.is_uncached:
        if op is POp.TRAP:
            raise ProtocolError(f"protocol TRAP {instr.imm} at handler index {index}")
        # SENDH/SENDA/PROBE read one register; expose it as the value.
        value = regs[instr.rs1] if op in (POp.SENDH, POp.SENDA, POp.PROBE) else 0
        return Step(index + 1, value=value, uncached=True)
    # Plain ALU.
    b = regs[instr.rs2] if instr.rs2 is not None else instr.imm & MASK64
    if op in (POp.POPC, POp.CTZ):
        result = alu(op, regs[instr.rs1], 0)
    else:
        result = alu(op, regs[instr.rs1], b)
    return Step(index + 1, dest=instr.rd, value=result)


class FunctionalRunner:
    """Run a whole handler functionally (tests and the analyze passes).

    ``on_uncached(instr, value)`` receives every uncached operation in
    program order; LDCTXT terminates the run.
    """

    def __init__(
        self,
        regs: list,
        pmem_read: Callable[[int], int],
        pmem_write: Callable[[int, int], None],
        on_uncached: Callable[[PInstr, int], None],
        max_steps: int = 10_000,
    ) -> None:
        self.regs = regs
        self.pmem_read = pmem_read
        self.pmem_write = pmem_write
        self.on_uncached = on_uncached
        self.max_steps = max_steps
        self.instructions_executed = 0

    def run(self, handler) -> None:
        index = 0
        for _ in range(self.max_steps):
            instr = handler.instrs[index]
            if instr.op in (POp.SWITCH, POp.LDCTXT):
                self.on_uncached(instr, 0)
                self.instructions_executed += 1
                if instr.op is POp.LDCTXT:
                    return
                index += 1
                continue
            result = step(instr, index, self.regs, self.pmem_read)
            self.instructions_executed += 1
            if result.is_store:
                self.pmem_write(result.mem_addr, result.value)
            elif result.uncached:
                self.on_uncached(instr, result.value)
            elif result.dest is not None and result.dest != 0:
                self.regs[result.dest] = result.value
            index = result.next_index
        raise ProtocolError(f"handler {handler.name} exceeded {self.max_steps} steps")
