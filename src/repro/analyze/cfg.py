"""Control-flow graphs over protocol-ISA handler programs.

A handler is a short straight-line program with forward branches and —
in exactly one sanctioned pattern, the sharer-vector ``inval_loop`` —
a backward jump.  The CFG here is instruction-granular (handlers are
tens of instructions, block formation would obscure more than it
saves): node ``i`` is ``handler.instrs[i]``, edges follow fallthrough
and resolved branch targets.

``TRAP`` terminates the program (the functional semantics raise), so a
trap instruction has no successors; the ``SWITCH``/``LDCTXT`` epilogue
the assembler requires after a trap is *not* reported as unreachable —
it is the builder's structural contract, not dead protocol code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.protocol.isa import Handler, PInstr, POp


@dataclass
class CFG:
    """Instruction-level control-flow graph of one handler."""

    handler: Handler
    succs: List[List[int]] = field(default_factory=list)
    preds: List[List[int]] = field(default_factory=list)
    reachable: FrozenSet[int] = frozenset()
    #: Back edges (src, dst) discovered by DFS from entry.
    back_edges: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def instrs(self) -> List[PInstr]:
        return self.handler.instrs

    def _natural_loop(self, src: int, dst: int) -> Set[int]:
        """Natural loop of back edge ``src -> dst`` (header ``dst``)."""
        body = {dst, src}
        stack = [src]
        while stack:
            node = stack.pop()
            for pred in self.preds[node]:
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        return body


def successors_of(instr: PInstr, index: int, n: int) -> List[int]:
    """CFG successors of the instruction at ``index``."""
    op = instr.op
    if op is POp.TRAP or op is POp.LDCTXT:
        return []  # terminate: trap raises, ldctxt ends the handler
    if op is POp.J:
        return [instr.target]
    if op in (POp.BEQZ, POp.BNEZ):
        out = [instr.target]
        if index + 1 < n:
            out.append(index + 1)
        return out
    return [index + 1] if index + 1 < n else []


def build_cfg(handler: Handler) -> CFG:
    n = len(handler.instrs)
    succs = [successors_of(instr, i, n) for i, instr in enumerate(handler.instrs)]
    preds: List[List[int]] = [[] for _ in range(n)]
    for i, outs in enumerate(succs):
        for j in outs:
            preds[j].append(i)

    # Reachability and back edges in one iterative DFS from entry.
    color = [0] * n  # 0 white, 1 grey (on stack), 2 black
    back_edges: List[Tuple[int, int]] = []
    stack: List[Tuple[int, int]] = [(0, 0)] if n else []
    if n:
        color[0] = 1
    while stack:
        node, child_idx = stack[-1]
        if child_idx < len(succs[node]):
            stack[-1] = (node, child_idx + 1)
            nxt = succs[node][child_idx]
            if color[nxt] == 0:
                color[nxt] = 1
                stack.append((nxt, 0))
            elif color[nxt] == 1:
                back_edges.append((node, nxt))
        else:
            color[node] = 2
            stack.pop()

    reachable = frozenset(i for i in range(n) if color[i] == 2)
    return CFG(handler, succs, preds, reachable, back_edges)


def unreachable_indices(cfg: CFG) -> List[int]:
    """Dead instructions, excluding the mandated post-TRAP epilogue.

    The assembler requires every handler to end with ``done()`` even
    when control provably traps first; a ``SWITCH``/``LDCTXT`` pair
    whose only straight-line ancestors are unreachable-or-trap is that
    contract, not dead protocol code.
    """
    dead = []
    instrs = cfg.instrs
    for i in range(len(instrs)):
        if i in cfg.reachable:
            continue
        if instrs[i].op in (POp.SWITCH, POp.LDCTXT) and _follows_trap(cfg, i):
            continue
        dead.append(i)
    return dead


def _follows_trap(cfg: CFG, index: int) -> bool:
    """Is ``index`` in the straight-line shadow of a TRAP?"""
    i = index - 1
    while i >= 0:
        op = cfg.instrs[i].op
        if op is POp.TRAP:
            return True
        if op in (POp.SWITCH, POp.LDCTXT):
            i -= 1
            continue
        return False
    return False


# ----------------------------------------------------------------------
# Bounded-loop proof
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoopProof:
    """Evidence that one back edge's loop terminates.

    The only sanctioned loop shape is the sharer-vector walk: a header
    ``BEQZ vec, exit`` guards the body, and the body strictly clears
    the lowest set bit of ``vec`` (``tmp = vec - 1; vec &= tmp``), so
    the loop runs at most ``popcount(vec) <= vector width`` times.
    """

    header: int
    vec_reg: int
    max_iterations: int


def prove_loop_bounded(
    cfg: CFG, back_edge: Tuple[int, int], vector_width: int
) -> Optional[LoopProof]:
    """Prove the natural loop of ``back_edge`` is a clear-lowest-bit
    walk; returns ``None`` when no proof is found (i.e. the loop may be
    unbounded)."""
    _src, header = back_edge
    body = cfg._natural_loop(*back_edge)
    head_instr = cfg.instrs[header]
    if head_instr.op is not POp.BEQZ:
        return None
    vec = head_instr.rs1
    if head_instr.target in body:
        return None  # the "exit" stays in the loop: not a guard
    # Find tmp = vec + (-1) followed (anywhere in the body) by
    # vec = vec & tmp.  Any other write to vec inside the loop voids
    # the monotonicity argument.
    decrements: Dict[int, int] = {}  # tmp reg -> index
    for i in sorted(body):
        instr = cfg.instrs[i]
        if (
            instr.op is POp.ADD
            and instr.rs1 == vec
            and instr.rs2 is None
            and instr.imm == -1
        ):
            decrements[instr.rd] = i
    cleared = False
    for i in sorted(body):
        instr = cfg.instrs[i]
        if instr.writes() != vec:
            continue
        if (
            instr.op is POp.AND
            and instr.rs1 == vec
            and instr.rs2 in decrements
            and decrements[instr.rs2] < i
        ):
            cleared = True
        else:
            return None  # some other redefinition of the loop variable
    if not cleared:
        return None
    return LoopProof(header=header, vec_reg=vec, max_iterations=vector_width)


# ----------------------------------------------------------------------
# Worst-case instruction counts
# ----------------------------------------------------------------------


def worst_case_instructions(
    cfg: CFG, proofs: Dict[Tuple[int, int], LoopProof]
) -> int:
    """Upper bound on instructions executed by one handler activation.

    Loop-free handlers get the exact longest path.  A proven bounded
    loop contributes ``max_iterations x |loop body|`` — a safe upper
    bound (each iteration executes at most the whole body).  Unproven
    loops make the count meaningless; callers must not request a count
    for a handler with unproven back edges.
    """
    n = len(cfg.instrs)
    if n == 0:
        return 0
    loop_cost: Dict[int, int] = {}  # header -> extra cost charged once
    loop_members: Dict[int, int] = {}  # node -> header it belongs to
    for edge, proof in proofs.items():
        body = cfg._natural_loop(*edge)
        # Each iteration executes at most the whole body; the final
        # exit evaluates the header guard once more.
        loop_cost[proof.header] = proof.max_iterations * len(body) + 1
        for node in body:
            loop_members[node] = proof.header

    # Longest path over the DAG formed by contracting each proven loop
    # into its header.  memo[i] = max instructions from i to any exit.
    memo: Dict[int, int] = {}
    on_path: Set[int] = set()

    def longest(i: int) -> int:
        if i in memo:
            return memo[i]
        if i in on_path:
            raise ValueError("unproven cycle reached in worst-case walk")
        on_path.add(i)
        header = loop_members.get(i)
        if header is not None and i == header:
            # Charge the whole loop once, then continue from its exits.
            body = {
                node for node, h in loop_members.items() if h == header
            }
            exits = {
                s
                for node in body
                for s in cfg.succs[node]
                if s not in body
            }
            tail = max((longest(e) for e in exits), default=0)
            result = loop_cost[header] + tail
        elif header is not None:
            # Non-header loop nodes are charged via their header.
            result = 0
        else:
            tail = max(
                (
                    longest(s)
                    for s in cfg.succs[i]
                    if loop_members.get(s) is None or s == loop_members.get(s)
                ),
                default=0,
            )
            result = 1 + tail
        on_path.discard(i)
        memo[i] = result
        return result

    return longest(0)
