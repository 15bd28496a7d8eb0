"""Pass 3: exhaustive small-model checking of the real handler table.

An explicit-state BFS over a tiny abstract machine — 2 to 6 nodes,
one to three application lines homed at node 0 — whose *protocol*
side is the actual handler programs executed
instruction-by-instruction through
:class:`repro.protocol.semantics.FunctionalRunner` (``semantics.step``,
the ISA's one functional semantics), with the uncached operations
(SENDH/SENDA/PROBE/COMPLETE/RESEND/MEMWR) mirrored from
:class:`repro.memctrl.controller.MemoryController` and the cache/MSHR
side mirrored from :class:`repro.caches.hierarchy.CacheHierarchy`.
The mirror reads the controller's own message rules from
:mod:`repro.network.messages` — the reply set, the probe-kind map,
header decoding, the data-bearing set and the request-type choice —
through name-keyed views where model messages carry type names.
Timing is abstracted away; every interleaving of message arrivals,
issue events, and evictions is explored.

Beyond the flat BFS, the checker applies two sound reductions (see
DESIGN.md, "Reduction theory", and :mod:`repro.analyze.symmetry`):

* **Symmetry** — states are canonicalized under permutations of the
  non-home nodes and of the lines before entering the visited set.
  Each BFS entry carries the permutation mapping its canonical frame
  back to the original machine, so counterexample traces stay
  concrete and replayable.
* **Partial-order reduction** — when a queued L2 probe reply can be
  dispatched and provably commutes with every other enabled
  transition (:func:`ample_probe`), it is explored *alone* as a
  singleton ample set and the sibling interleavings are pruned.

The search is one in-process BFS (:func:`_bfs`).  A deep run can
checkpoint it to a directory level by level
(:mod:`repro.analyze.frontier`), so a killed run resumes to the same
result.

Invariants: the :mod:`repro.protocol.invariants` predicates, the same
ones the sanitizer evaluates on the full simulator — ``check_entry``
and ``check_swmr`` on every new state when it is admitted (see
:class:`Search`), ``check_store`` at every committed store,
``check_quiescent_line`` once nothing is in flight — plus two the
model adds:

* **No stuck states** (``stuck``) — an MSHR with no message in flight
  anywhere can never complete: deadlock.
* **No traps** (``trap``) — a reachable TRAP is a protocol violation by
  definition.

Counterexamples serialize through :mod:`repro.fuzz.artifact` (the
issue events become ``FuzzOp`` records, the full transition trace
becomes the artifact's trace tail) so ``repro fuzz --replay`` can
re-drive the concrete machine along the same op sequence.

Deliberate model simplifications, documented:

* at most one MSHR per (node, line) and no cache-capacity conflicts;
  evictions and silent SHARED drops are explicit transitions instead,
* loads that hit do not appear as transitions (no protocol effect),
* atomics/prefetches and the active-memory extension are out of the
  issue alphabet,
* NACK retries happen immediately (no backoff): livelock cycles are
  finite state-graph cycles here, not detected as failures.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.common.errors import ConfigError, ProtocolError
from repro.network.messages import (
    DATA_BEARING,
    MTYPE_BY_VALUE,
    PROBE_KIND,
    REPLY_TYPES,
    Message,
    MsgType,
    request_type,
    virtual_network,
)
from repro.protocol import directory as d
from repro.protocol import invariants as inv
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import (
    boot_registers,
    build_handler_table,
    header_acks,
    header_peer,
    header_requester,
    header_type,
)
from repro.protocol.isa import ADDR, HDR, HandlerTable, POp, RESEND_AS_GETX
from repro.protocol.semantics import FunctionalRunner
from repro.memctrl.dispatch import handler_name_for, incoming_header
from repro.protocol.handlers import PROBE_DISPATCH

from repro.analyze import symmetry as sym

#: First application line under test; homed at node 0 for the
#: standard fuzz layout (local_memory_bytes = 1 << 22).  Additional
#: lines are consecutive 128-byte neighbours, so every line shares
#: the same home and the symmetry group treats them uniformly.
LINE = 0x2000
LINE_STRIDE = 128

#: Hard caps: the symmetry group is (n-1)!·L!, and canonicalization
#: enumerates it per successor, so keep both small.
MAX_NODES = 6
MAX_LINES = 3


def line_addr(line: int) -> int:
    return LINE + line * LINE_STRIDE


#: Name-keyed views of the controller's message rules
#: (:mod:`repro.network.messages`): model messages carry the type's
#: name, which hashes faster than the enum in the visited set.
_REPLIES = frozenset(m.name for m in REPLY_TYPES)
_PROBE_KIND = {m.name: kind for m, kind in PROBE_KIND.items()}


class MMsg(NamedTuple):
    """An in-flight message (hashable mirror of network.Message)."""

    mtype: str
    src: int
    dest: int
    requester: int
    version: int = 0
    dirty: bool = False
    acks: int = 0
    found: bool = False
    probe_kind: str = ""
    line: int = 0  # line index (address = line_addr(line))


class MShr(NamedTuple):
    """One node's miss-status register for one line."""

    kind: str  # 'read' | 'write'
    request_upgrade: bool = False
    upgrade_pending: bool = False
    data_arrived: bool = False
    writable: bool = False
    version: int = 0
    pending_acks: int = 0
    inval_after_fill: bool = False
    stores: int = 0  # store waiters to commit at completion
    deferred: Tuple[MMsg, ...] = ()  # probes racing the in-flight fill
    unissued: bool = False  # parked behind an unacknowledged PUT


class MNode(NamedTuple):
    caches: Tuple[str, ...]  # per line: '' (invalid) | 'S' | 'E' | 'M'
    versions: Tuple[int, ...]  # per line
    mshrs: Tuple[Optional[MShr], ...]  # per line
    probes: Tuple[MMsg, ...] = ()  # node-internal L2 probe replies
    lmi: Tuple[MMsg, ...] = ()  # local miss interface queue
    loads: int = 0  # remaining load-issue budget (shared across lines)
    stores: int = 0  # remaining store-issue budget (shared across lines)
    wb_pending: Tuple[bool, ...] = ()  # per line: PUT sent, no WB_ACK yet


class MState(NamedTuple):
    nodes: Tuple[MNode, ...]
    entries: Tuple[int, ...]  # per line directory entry (at home)
    mems: Tuple[int, ...]  # per line home memory version
    mem_sets: Tuple[bool, ...]  # per line: memory ever written?
    counts: Tuple[int, ...]  # per line machine-wide committed stores
    chans: Tuple[Tuple[MMsg, ...], ...]  # (src*n+dest)*3+vn FIFOs


class ModelViolation(Exception):
    """An invariant failed; ``status`` matches fuzz status classes."""

    def __init__(self, code: str, message: str, status: str = "violation"):
        super().__init__(message)
        self.code = code
        self.status = status


class Violation(NamedTuple):
    """A violation plus the transition trace that reaches it."""

    code: str
    status: str  # 'violation' | 'deadlock'
    message: str
    trace: Tuple[str, ...]


class ExploreResult(NamedTuple):
    states: int  # canonical states visited (raw when reductions off)
    transitions: int  # transitions actually applied
    truncated: bool
    violation: Optional[Violation]
    #: Σ orbit sizes over visited canonical states: the size of the
    #: symmetry-closed set the canonical set represents.  The
    #: symmetry reduction ratio is sym_states / states.
    sym_states: int = 0
    #: transitions pruned by the ample-set reduction (never applied).
    pruned: int = 0
    #: deepest trace length reached.
    max_depth: int = 0


def initial_state(
    n_nodes: int, loads: int, stores: int, n_lines: int = 1
) -> MState:
    nodes = tuple(
        MNode(
            caches=("",) * n_lines,
            versions=(0,) * n_lines,
            mshrs=(None,) * n_lines,
            loads=loads,
            stores=stores,
            wb_pending=(False,) * n_lines,
        )
        for _ in range(n_nodes)
    )
    chans = tuple(() for _ in range(n_nodes * n_nodes * 3))
    return MState(
        nodes,
        entries=(d.encode(d.UNOWNED),) * n_lines,
        mems=(0,) * n_lines,
        mem_sets=(False,) * n_lines,
        counts=(0,) * n_lines,
        chans=chans,
    )


class _Node:
    """A thawed :class:`MNode`: the mutable form ``_Sim`` edits in place.

    Same field names as ``MNode``, so code that only reads a node works
    on either form.
    """

    __slots__ = MNode._fields

    def __init__(self, node: MNode):
        self.caches = list(node.caches)
        self.versions = list(node.versions)
        self.mshrs = list(node.mshrs)
        self.probes = list(node.probes)
        self.lmi = list(node.lmi)
        self.loads = node.loads
        self.stores = node.stores
        self.wb_pending = list(node.wb_pending)

    def freeze(self) -> MNode:
        return MNode(
            tuple(self.caches), tuple(self.versions), tuple(self.mshrs),
            tuple(self.probes), tuple(self.lmi), self.loads, self.stores,
            tuple(self.wb_pending),
        )


class _Run(NamedTuple):
    """One handler execution, recorded for replay (see ``run_handler``)."""

    name: str
    ops: Tuple[Tuple[POp, int, int], ...]  # (op, imm, value) in program order
    entry: Optional[int]  # final home directory entry; None off-home
    error: Optional[str]  # the ProtocolError that ended the run, if any


class _Sim:
    """Copy-on-write working copy of one MState, for applying a transition.

    Nodes and channel FIFOs stay the frozen tuples of the source state
    until a transition writes them (:meth:`node`, :meth:`chan_at`);
    :meth:`freeze` reuses every untouched one by identity.  Reads go
    through ``self.nodes[i]``, which holds either form.
    """

    def __init__(
        self,
        st: MState,
        layout: DirectoryLayout,
        table: HandlerTable,
        bundle=None,
        runs: Optional[Dict] = None,
    ):
        self.layout = layout
        self.table = table
        #: Protocol bundle whose dispatch tables route messages; None
        #: falls back to the default protocol's module tables.
        self.bundle = bundle
        #: Handler runs recorded so far, keyed by their inputs; shared
        #: by every ``_Sim`` of one search.
        self.runs = {} if runs is None else runs
        self.st = st
        self.n = len(st.nodes)
        self.nodes: List = list(st.nodes)  # MNode, or _Node once thawed
        self._thawed: List[int] = []
        self._chans: Dict[int, List[MMsg]] = {}  # thawed FIFOs by index
        self.entries = list(st.entries)
        self.mems = list(st.mems)
        self.mem_sets = list(st.mem_sets)
        self.counts = list(st.counts)
        self.home = layout.home_of(LINE)

    def node(self, i: int) -> _Node:
        """Node ``i`` in writable form, thawed on first use."""
        node = self.nodes[i]
        if node.__class__ is MNode:
            node = self.nodes[i] = _Node(node)
            self._thawed.append(i)
        return node

    def chan_at(self, ci: int) -> List[MMsg]:
        """Channel FIFO ``ci`` in writable form, thawed on first use."""
        q = self._chans.get(ci)
        if q is None:
            q = self._chans[ci] = list(self.st.chans[ci])
        return q

    def freeze(self) -> MState:
        st = self.st
        nodes = st.nodes
        if self._thawed:
            thawed = list(nodes)
            for i in self._thawed:
                thawed[i] = self.nodes[i].freeze()
            nodes = tuple(thawed)
        chans = st.chans
        if self._chans:
            thawed = list(chans)
            for ci, q in self._chans.items():
                thawed[ci] = tuple(q)
            chans = tuple(thawed)
        return MState(
            nodes, tuple(self.entries), tuple(self.mems),
            tuple(self.mem_sets), tuple(self.counts), chans,
        )

    # -- message plumbing ----------------------------------------------

    def chan(self, src: int, dest: int, vn: int) -> List[MMsg]:
        return self.chan_at((src * self.n + dest) * 3 + vn)

    def route(self, msg: MMsg) -> None:
        """Send ``msg`` the way the MC would."""
        mtype = MsgType[msg.mtype]
        if msg.dest == msg.src and msg.mtype not in _REPLIES:
            # _deliver_local -> _enqueue_local for non-replies.
            self.node(msg.src).lmi.append(msg)
        else:
            # Replies to self take a (src, src) channel: the real MC
            # applies them after a delay, so other events interleave.
            self.chan(msg.src, msg.dest, virtual_network(mtype)).append(msg)

    # -- handler execution (the real programs) --------------------------

    def run_handler(self, node_id: int, msg: MMsg) -> None:
        """Run the handler for ``msg`` at ``node_id``.

        With the table and bundle fixed, a run depends only on (node,
        message, home directory entry): registers boot from the layout
        and protocol memory holds just the home's entry.  So the first
        run on those inputs is recorded (:meth:`_record`) and every run
        replays the record's uncached ops through the mirror below, in
        program order, exactly as the live runner would deliver them.
        """
        entry = self.entries[msg.line] if node_id == self.home else None
        key = (node_id, msg, entry)
        run = self.runs.get(key)
        if run is None:
            run = self.runs[key] = self._record(node_id, msg, entry)
        latched: Optional[int] = None
        for op, imm, value in run.ops:
            if op is POp.SENDH:
                latched = value
            elif op is POp.SENDA:
                if latched is None:
                    raise ModelViolation(
                        "send-without-header",
                        f"{run.name} at node {node_id}: SENDA with no header",
                    )
                self._execute_send(node_id, msg, latched)
                latched = None
            elif op is POp.PROBE:
                self._execute_probe(node_id, msg)
            elif op is POp.COMPLETE:
                self._apply_reply(node_id, msg)
            elif op is POp.RESEND:
                self._resend(node_id, msg.line, as_getx=imm == RESEND_AS_GETX)
            elif op is POp.MEMWR:
                if msg.dirty:
                    self.mems[msg.line] = msg.version
                    self.mem_sets[msg.line] = True
                elif not self.mem_sets[msg.line]:
                    self.mems[msg.line] = msg.version
                    self.mem_sets[msg.line] = True
            # AMO: atomics are outside the model's issue alphabet.
            # SWITCH/LDCTXT: sequencing only.
        if run.error is not None:
            raise ModelViolation(
                "trap", f"{run.name} at node {node_id}: {run.error}"
            )
        if entry is not None:
            self.entries[msg.line] = run.entry

    def _record(self, node_id: int, msg: MMsg, entry: Optional[int]) -> _Run:
        """Execute the real handler program through ``FunctionalRunner``
        and record its uncached ops.  The mirror never feeds a value
        back into the program, so recording first and replaying after
        is the same as acting on each op as it is issued."""
        if msg.mtype == "L2_PROBE_REPLY":
            probe = (
                self.bundle.probe_dispatch if self.bundle else PROBE_DISPATCH
            )
            name = probe[MsgType[msg.probe_kind]]
        else:
            name = handler_name_for(self._to_message(msg), node_id, self.bundle)
        regs = boot_registers(self.layout, node_id)
        regs[ADDR] = line_addr(msg.line)
        regs[HDR] = incoming_header(self._to_message(msg))
        dir_addr = self.layout.dir_entry_addr(line_addr(msg.line))
        pmem: Dict[int, int] = {}
        if entry is not None:
            pmem[dir_addr] = entry
        ops: List[Tuple[POp, int, int]] = []
        runner = FunctionalRunner(
            regs, lambda a: pmem.get(a, 0), pmem.__setitem__,
            lambda instr, value: ops.append((instr.op, instr.imm, value)),
        )
        error = None
        try:
            runner.run(self.table[name])
        except ProtocolError as exc:
            error = str(exc)
        final = pmem[dir_addr] if entry is not None else None
        return _Run(name, tuple(ops), final, error)

    def _to_message(self, msg: MMsg) -> Message:
        m = Message(
            MsgType[msg.mtype], line_addr(msg.line), src=msg.src,
            dest=msg.dest, requester=msg.requester, version=msg.version,
            dirty=msg.dirty, acks=msg.acks, found=msg.found,
        )
        if msg.probe_kind:
            m.probe_kind = MsgType[msg.probe_kind]
        return m

    def _execute_send(self, node_id: int, ctx_msg: MMsg, header: int) -> None:
        mtype = MTYPE_BY_VALUE[header_type(header)]
        out = MMsg(
            mtype.name, src=node_id, dest=header_peer(header),
            requester=header_requester(header), acks=header_acks(header),
            line=ctx_msg.line,
        )
        if mtype in DATA_BEARING:
            if ctx_msg.mtype == "L2_PROBE_REPLY":
                out = out._replace(version=ctx_msg.version, dirty=ctx_msg.dirty)
            else:
                out = out._replace(version=self.mems[ctx_msg.line], dirty=False)
        self.route(out)

    def _execute_probe(self, node_id: int, ctx_msg: MMsg) -> None:
        """Mirror hierarchy.probe + the MC's reply composition."""
        probe_kind = ctx_msg.mtype  # INT_SHARED / INT_EXCL / INVAL
        kind = _PROBE_KIND[probe_kind]
        line = ctx_msg.line
        node = self.nodes[node_id]
        if node.wb_pending[line]:
            # Writeback-buffer hit (hierarchy.probe): our PUT is in
            # flight and unacknowledged, so the intervention targets
            # the written-back copy.  Answer miss.
            self._probe_reply(node_id, ctx_msg, False, False, 0)
            return
        mshr: Optional[MShr] = node.mshrs[line]
        if mshr is not None and not self._complete(mshr):
            if kind == "inval":
                if node.caches[line] == "":
                    # Stale INVAL racing our re-fetch: early-ack, and
                    # discard a non-writable fill afterwards.
                    self.node(node_id).mshrs[line] = mshr._replace(
                        inval_after_fill=True
                    )
                    self._probe_reply(node_id, ctx_msg, False, False, 0)
                    return
                # INVAL racing an in-flight upgrade hits the
                # still-present SHARED copy immediately.
            else:
                self.node(node_id).mshrs[line] = mshr._replace(
                    deferred=mshr.deferred + (ctx_msg,)
                )
                return
        found, dirty, version = self._do_probe(node_id, line, kind)
        self._probe_reply(node_id, ctx_msg, found, dirty, version)

    def _do_probe(
        self, node_id: int, line: int, kind: str
    ) -> Tuple[bool, bool, int]:
        state = self.nodes[node_id].caches[line]
        if state == "":
            return False, False, 0
        if kind == "inval" and state in ("E", "M"):
            # Stale INVAL: a later transaction made us owner.  Ack and
            # keep the copy.
            return False, False, 0
        node = self.node(node_id)
        dirty = state == "M"
        version = node.versions[line]
        if kind in ("inval", "inval_owner"):
            node.caches[line] = ""
        else:  # downgrade
            node.caches[line] = "S"
        return True, dirty, version

    def _probe_reply(
        self, node_id: int, origin: MMsg, found: bool, dirty: bool, version: int
    ) -> None:
        self.node(node_id).probes.append(MMsg(
            "L2_PROBE_REPLY", src=origin.src, dest=node_id,
            requester=origin.requester, version=version, dirty=dirty,
            found=found, probe_kind=origin.mtype, line=origin.line,
        ))

    # -- reply application (mirror of MC._apply_reply + hierarchy) ------

    @staticmethod
    def _complete(mshr: MShr) -> bool:
        return (
            mshr.data_arrived
            and mshr.pending_acks == 0
            and not mshr.upgrade_pending
        )

    def _apply_reply(self, node_id: int, msg: MMsg) -> None:
        mtype = msg.mtype
        line = msg.line
        if mtype == "DATA_SHARED":
            self._refill(node_id, line, False, msg.version, msg.acks, False)
        elif mtype == "DATA_EXCL":
            self._refill(node_id, line, True, msg.version, msg.acks, msg.dirty)
        elif mtype == "UPGRADE_ACK":
            node = self.nodes[node_id]
            if node.mshrs[line] is None:
                raise ModelViolation(
                    "reply-no-mshr", f"node {node_id}: upgrade ack, no MSHR"
                )
            version = node.versions[line] if node.caches[line] else 0
            self._data_reply(node_id, line, version, True, msg.acks)
            self._maybe_complete(node_id, line, dirty=False)
        elif mtype == "INV_ACK":
            node = self.node(node_id)
            if node.mshrs[line] is None:
                raise ModelViolation(
                    "reply-no-mshr", f"node {node_id}: inval ack, no MSHR"
                )
            node.mshrs[line] = node.mshrs[line]._replace(
                pending_acks=node.mshrs[line].pending_acks - 1
            )
            self._maybe_complete(node_id, line, dirty=False)
        elif mtype == "WB_ACK":
            node = self.node(node_id)
            node.wb_pending[line] = False
            mshr = node.mshrs[line]
            if mshr is not None and mshr.unissued:
                # The parked miss issues now (hierarchy.wb_ack).
                node.mshrs[line] = mshr._replace(unissued=False)
                self._request(node_id, line)
        elif mtype == "NACK":
            self._resend(node_id, line, as_getx=False)
        elif mtype == "NACK_UPGRADE":
            self._resend(node_id, line, as_getx=True)
        else:
            raise ModelViolation("bad-reply", f"not a reply: {mtype}")

    def _refill(
        self, node_id: int, line: int, writable: bool, version: int,
        acks: int, dirty: bool,
    ) -> None:
        node = self.nodes[node_id]
        if node.mshrs[line] is None:
            raise ModelViolation(
                "refill-no-mshr", f"node {node_id}: refill with no MSHR"
            )
        self._data_reply(node_id, line, version, writable, acks)
        mshr = self.nodes[node_id].mshrs[line]
        if mshr.upgrade_pending and mshr.data_arrived and not writable:
            self._convert_to_upgrade(node_id, line)
            return
        self._maybe_complete(node_id, line, dirty)

    def _data_reply(
        self, node_id: int, line: int, version: int, writable: bool, acks: int
    ) -> None:
        node = self.node(node_id)
        mshr = node.mshrs[line]
        upgrade_pending = mshr.upgrade_pending and not writable
        node.mshrs[line] = mshr._replace(
            data_arrived=True, version=version, writable=writable,
            pending_acks=mshr.pending_acks + acks,
            upgrade_pending=upgrade_pending,
        )

    def _convert_to_upgrade(self, node_id: int, line: int) -> None:
        node = self.node(node_id)
        mshr = node.mshrs[line]
        if node.caches[line] == "":
            node.caches[line] = "S"
            node.versions[line] = mshr.version
        node.mshrs[line] = mshr._replace(
            kind="write", upgrade_pending=False, request_upgrade=True,
            data_arrived=False, writable=False,
        )
        self._request(node_id, line)

    def _maybe_complete(self, node_id: int, line: int, dirty: bool) -> None:
        mshr = self.nodes[node_id].mshrs[line]
        if not self._complete(mshr):
            return
        node = self.node(node_id)
        if mshr.request_upgrade:
            if node.caches[line] == "":
                raise ModelViolation(
                    "upgrade-lost-copy",
                    f"node {node_id}: upgrade completed but the pinned "
                    "SHARED copy is gone",
                )
            node.caches[line] = "M" if dirty else "E"
        else:
            state = "M" if dirty else ("E" if mshr.writable else "S")
            if node.caches[line] == "":
                node.caches[line] = state
                node.versions[line] = mshr.version
            elif state in ("E", "M") and node.caches[line] == "S":
                # A lost upgrade retried as a full GETX: promote.
                node.caches[line] = state
                node.versions[line] = max(node.versions[line], mshr.version)
        node.mshrs[line] = None
        for _ in range(mshr.stores):
            self._commit_store(node_id, line)
        if mshr.inval_after_fill and node.caches[line] == "S":
            node.caches[line] = ""  # the early-acked INVAL lands now
        for probe in mshr.deferred:
            kind = _PROBE_KIND[probe.mtype]
            found, dty, version = self._do_probe(node_id, probe.line, kind)
            self._probe_reply(node_id, probe, found, dty, version)

    def _resend(self, node_id: int, line: int, as_getx: bool) -> None:
        mshr = self.nodes[node_id].mshrs[line]
        if mshr is None:
            return  # stale NACK: transaction already completed
        node = self.node(node_id)
        if as_getx:
            mshr = mshr._replace(request_upgrade=False)
            node.mshrs[line] = mshr
        mtype = request_type(mshr.request_upgrade, mshr.kind == "write").name
        msg = MMsg(
            mtype, src=node_id, dest=self.home, requester=node_id, line=line
        )
        if self.home == node_id:
            node.lmi.append(msg)
        else:
            self.chan(node_id, self.home, 0).append(msg)

    # -- issue / eviction side ------------------------------------------

    def _request(self, node_id: int, line: int) -> None:
        """Mirror of hierarchy._issue_app_miss + MC.app_miss: compose
        the request for the current MSHR and enqueue it locally — or
        park it while our PUT for the line is unacknowledged."""
        node = self.node(node_id)
        mshr = node.mshrs[line]
        if node.wb_pending[line]:
            node.mshrs[line] = mshr._replace(unissued=True)
            return
        mtype = request_type(mshr.request_upgrade, mshr.kind == "write").name
        node.lmi.append(MMsg(
            mtype, src=node_id, dest=self.home, requester=node_id, line=line
        ))

    def _commit_store(self, node_id: int, line: int) -> None:
        node = self.node(node_id)
        count = self.counts[line] + 1
        version = node.versions[line] + 1
        failure = inv.check_store(
            node_id,
            node.caches[line] in ("E", "M"),
            version,
            count,
            [
                other_id for other_id, other in enumerate(self.nodes)
                if other_id != node_id and other.caches[line] in ("E", "M")
            ],
        )
        if failure is not None:
            raise _violation(failure, line)
        self.counts[line] = count
        node.versions[line] = version
        node.caches[line] = "M"

    def issue_load(self, node_id: int, line: int) -> None:
        node = self.node(node_id)
        node.loads -= 1
        node.mshrs[line] = MShr(kind="read")
        self._request(node_id, line)

    def issue_store(self, node_id: int, line: int) -> str:
        node = self.node(node_id)
        node.stores -= 1
        mshr = node.mshrs[line]
        if mshr is not None:
            # Merge onto the in-flight read: ownership upgrade follows
            # the (possibly SHARED) fill.
            node.mshrs[line] = mshr._replace(
                upgrade_pending=True, stores=mshr.stores + 1
            )
            return "merge"
        if node.caches[line] in ("E", "M"):
            self._commit_store(node_id, line)
            return "hit"
        if node.caches[line] == "S":
            node.mshrs[line] = MShr(
                kind="write", request_upgrade=True, stores=1
            )
            self._request(node_id, line)
            return "upgrade"
        node.mshrs[line] = MShr(kind="write", stores=1)
        self._request(node_id, line)
        return "miss"

    def evict(self, node_id: int, line: int) -> None:
        node = self.node(node_id)
        dirty = node.caches[line] == "M"
        version = node.versions[line]
        node.caches[line] = ""
        node.wb_pending[line] = True
        msg = MMsg(
            "PUT", src=node_id, dest=self.home, requester=node_id,
            version=version, dirty=dirty, line=line,
        )
        if self.home == node_id:
            node.lmi.append(msg)
        else:
            self.chan(
                node_id, self.home, virtual_network(MsgType.PUT)
            ).append(msg)

    def drop(self, node_id: int, line: int) -> None:
        self.node(node_id).caches[line] = ""


# ----------------------------------------------------------------------
# Invariants over whole states
# ----------------------------------------------------------------------


def _violation(failure: inv.Failure, line: int) -> ModelViolation:
    code, message = failure
    return ModelViolation(
        code, f"L{line}: {message}",
        status="deadlock" if code == "stuck-directory" else "violation",
    )


def check_state(st: MState, n_nodes: int) -> None:
    """Raise ModelViolation if ``st`` breaks an invariant: the
    :mod:`repro.protocol.invariants` predicates on every line (the
    quiescent one once nothing is in flight), plus the model's own
    ``stuck`` liveness test."""
    nodes = st.nodes
    writers = [
        [i for i, n in enumerate(nodes) if n.caches[line] in ("E", "M")]
        for line in range(len(st.entries))
    ]
    for line, entry in enumerate(st.entries):
        failure = inv.check_entry(entry, n_nodes) or inv.check_swmr(
            writers[line]
        )
        if failure is not None:
            raise _violation(failure, line)

    in_flight = any(st.chans) or any(n.lmi or n.probes for n in nodes)
    waiting = [
        i for i, n in enumerate(nodes)
        if any(m is not None for m in n.mshrs)
        or any(
            wb and m is None for wb, m in zip(n.wb_pending, n.mshrs)
        )
    ]
    if waiting and not in_flight:
        raise ModelViolation(
            "stuck",
            f"nodes {waiting} wait on MSHRs or WB_ACKs but no message "
            "is in flight anywhere: the transaction can never complete",
            status="deadlock",
        )
    if in_flight or waiting:
        return
    for line, entry in enumerate(st.entries):
        owners = writers[line]
        failure = inv.check_quiescent_line(
            entry,
            owners,
            [i for i, n in enumerate(nodes) if n.caches[line] == "S"],
            nodes[owners[0]].versions[line] if owners else 0,
            st.mems[line],
            st.counts[line],
        )
        if failure is not None:
            raise _violation(failure, line)


# ----------------------------------------------------------------------
# Transition relation
# ----------------------------------------------------------------------


def _store_issuable(node: MNode, line: int) -> bool:
    mshr = node.mshrs[line]
    return mshr is None or (
        mshr.kind == "read" and not mshr.upgrade_pending
    )


def successors(
    st: MState, layout: DirectoryLayout, table: HandlerTable, bundle=None,
    runs: Optional[Dict] = None,
) -> List[Tuple[str, MState]]:
    """All (label, next-state) pairs from ``st``.

    Raises ModelViolation if a transition faults while it fires (a
    trap, a failed ``check_store``, a send without a header).  The
    exception carries the transition's ``label`` and, as ``partial``,
    the pairs generated before it; the caller knows the path.  Whole
    state invariants are not evaluated here: :meth:`Search.expand`
    checks each new state once, when it is admitted.

    ``runs`` is the search's handler-run memo (see
    :meth:`_Sim.run_handler`); None starts a fresh one.
    """
    out: List[Tuple[str, MState]] = []
    n = len(st.nodes)
    n_lines = len(st.entries)
    if runs is None:
        runs = {}

    def apply(label: str, fn) -> None:
        sim = _Sim(st, layout, table, bundle, runs)
        try:
            fn(sim)
        except ModelViolation as exc:
            exc.label = label  # type: ignore[attr-defined]
            exc.partial = out  # type: ignore[attr-defined]
            raise
        out.append((label, sim.freeze()))

    for i, node in enumerate(st.nodes):
        # Issue alphabet.
        for k in range(n_lines):
            if node.loads > 0 and node.caches[k] == "" and node.mshrs[k] is None:
                apply(f"n{i}: load L{k}", lambda s, i=i, k=k: s.issue_load(i, k))
            if node.stores > 0 and _store_issuable(node, k):
                apply(
                    f"n{i}: store L{k}", lambda s, i=i, k=k: s.issue_store(i, k)
                )
            # Evictions / silent drops.
            if node.mshrs[k] is None and node.caches[k] in ("E", "M"):
                apply(f"n{i}: evict L{k}", lambda s, i=i, k=k: s.evict(i, k))
            if node.mshrs[k] is None and node.caches[k] == "S":
                apply(f"n{i}: drop L{k}", lambda s, i=i, k=k: s.drop(i, k))
        # Dispatch: probe replies have absolute priority (they are
        # node-internal, so there is no arrival race to model).
        if node.probes:
            msg = node.probes[0]

            def fire_probe(s, i=i):
                m = s.node(i).probes.pop(0)
                s.run_handler(i, m)

            apply(
                f"n{i}: dispatch {msg.probe_kind} reply L{msg.line}",
                fire_probe,
            )
            continue
        if node.lmi:
            msg = node.lmi[0]

            def fire_lmi(s, i=i):
                m = s.node(i).lmi.pop(0)
                s.run_handler(i, m)

            apply(
                f"n{i}: dispatch {msg.mtype} (local) L{msg.line}", fire_lmi
            )
        for src in range(n):
            for vn in (0, 1, 2):
                ci = (src * n + i) * 3 + vn
                if not st.chans[ci]:
                    continue
                msg = st.chans[ci][0]

                def fire_net(s, ci=ci, i=i):
                    m = s.chan_at(ci).pop(0)
                    s.run_handler(i, m)

                apply(
                    f"n{i}: dispatch {msg.mtype} from n{src}/vn{vn} "
                    f"L{msg.line}",
                    fire_net,
                )
    return out


# ----------------------------------------------------------------------
# Partial-order reduction: singleton ample sets for probe replies
# ----------------------------------------------------------------------


def _evict_enabled(node: MNode) -> bool:
    return any(
        m is None and c in ("E", "M")
        for m, c in zip(node.mshrs, node.caches)
    )


def ample_probe(st: MState, home: int = 0) -> Optional[int]:
    """Pick a node whose queued L2 probe reply forms a singleton
    ample set, or None if no dispatch qualifies.

    Dispatching a queued probe reply only pops ``probes[i]`` and
    pushes messages: a reply on VN1 to the requester and, for
    interventions, a revision (SWB/XFER/INT_NACK) to the home.  All
    pushes originate at node ``i`` (``chan(i, ·)`` or ``lmi(i)``), so
    the only transitions it can fail to commute with are node ``i``'s
    *own* issue/evict pushes into the same FIFOs — and probe priority
    already blocks every other dispatch at ``i``, while issue budgets
    only shrink and evict-enabledness cannot appear at ``i`` along
    paths that do not dispatch this reply (a store hit requires an
    already-evictable copy).  Hence the dynamic conditions:

    * INVAL replies (INV_ACK to the requester on VN1) are always safe:
      nothing else at ``i`` pushes VN1.
    * intervention replies are safe iff the revision FIFO is private:
      no evict enabled at ``i`` (the PUT would share
      ``chan(i, home, VN2)``), and for ``i == home`` no issue budget
      remains either (issues and evicts there share ``lmi(home)``).

    The full soundness argument lives in DESIGN.md ("Reduction
    theory"); tests/test_model_reduction.py checks one-step
    commutation empirically on reachable states.
    """
    for i, node in enumerate(st.nodes):
        if not node.probes:
            continue
        head = node.probes[0]
        if head.probe_kind == "INVAL":
            return i
        if i != home:
            if not _evict_enabled(node):
                return i
        elif (
            node.loads == 0 and node.stores == 0
            and not _evict_enabled(node)
        ):
            return i
    return None


def count_enabled(st: MState) -> int:
    """How many transitions :func:`successors` would enumerate —
    without applying any of them (used to account pruned work)."""
    n = len(st.nodes)
    n_lines = len(st.entries)
    cnt = 0
    for i, node in enumerate(st.nodes):
        for k in range(n_lines):
            if node.loads > 0 and node.caches[k] == "" and node.mshrs[k] is None:
                cnt += 1
            if node.stores > 0 and _store_issuable(node, k):
                cnt += 1
            if node.mshrs[k] is None and node.caches[k] in ("E", "M"):
                cnt += 1
            if node.mshrs[k] is None and node.caches[k] == "S":
                cnt += 1
        if node.probes:
            cnt += 1
            continue
        if node.lmi:
            cnt += 1
        for src in range(n):
            for vn in (0, 1, 2):
                if st.chans[(src * n + i) * 3 + vn]:
                    cnt += 1
    return cnt


def _apply_probe_dispatch(
    st: MState, i: int, layout: DirectoryLayout, table: HandlerTable,
    bundle=None, runs: Optional[Dict] = None,
) -> Tuple[str, MState]:
    msg = st.nodes[i].probes[0]
    label = f"n{i}: dispatch {msg.probe_kind} reply L{msg.line}"
    sim = _Sim(st, layout, table, bundle, runs)
    try:
        m = sim.node(i).probes.pop(0)
        sim.run_handler(i, m)
    except ModelViolation as exc:
        exc.label = label  # type: ignore[attr-defined]
        exc.partial = []  # type: ignore[attr-defined]
        raise
    return label, sim.freeze()


def expand(
    st: MState,
    layout: DirectoryLayout,
    table: HandlerTable,
    por: bool = True,
    bundle=None,
    runs: Optional[Dict] = None,
) -> Tuple[List[Tuple[str, MState]], int]:
    """Successors of ``st`` under the (optional) ample-set reduction.

    Returns ``(pairs, pruned)`` where ``pruned`` counts the enabled
    transitions that were *not* applied because a singleton ample set
    stood in for them.  Faults raise as in :func:`successors`.
    """
    if por:
        i = ample_probe(st, home=0)
        if i is not None:
            pair = _apply_probe_dispatch(st, i, layout, table, bundle, runs)
            return [pair], count_enabled(st) - 1
    return successors(st, layout, table, bundle, runs), 0


# ----------------------------------------------------------------------
# Reduced explicit-state BFS
# ----------------------------------------------------------------------

#: One BFS entry: a canonical state, the concrete (original-frame)
#: trace that reaches a member of its orbit, and the node/line
#: permutations mapping the canonical frame back to that original
#: frame (so labels minted in the canonical frame can be translated).
Entry = Tuple[MState, Tuple[str, ...], sym.Perm, sym.Perm]


def root_entry(st: MState) -> Entry:
    return (st, (), sym.identity(len(st.nodes)), sym.identity(len(st.entries)))


def _traced(exc: ModelViolation, label: str, entry: Entry) -> Violation:
    """``exc``, raised by transition ``label`` out of ``entry``'s
    canonical frame, as a violation in the original frame."""
    _, trace, sig, lam = entry
    return Violation(
        exc.code, exc.status, sym.remap_label(str(exc), sig, lam),
        trace + (sym.remap_label(label, sig, lam),),
    )


class Search:
    """Successor generation and admission for one search.

    The BFS expands every entry through one instance.  The instance
    owns the search's memos: the canonicalizer's component keys and the
    recorded handler runs (:meth:`_Sim.run_handler`).  Both go when
    the instance does.
    """

    def __init__(
        self,
        root: MState,
        layout: DirectoryLayout,
        table: HandlerTable,
        bundle=None,
        reduce_sym: bool = True,
        reduce_por: bool = True,
    ):
        self.layout = layout
        self.table = table
        self.bundle = bundle
        self.reduce_por = reduce_por
        self.n = len(root.nodes)
        self.ids = (sym.identity(self.n), sym.identity(len(root.entries)))
        self.canon = (
            sym.Canonicalizer(self.n, len(root.entries)) if reduce_sym
            else None
        )
        self.runs: Dict = {}
        #: ``(label, σ, λ) -> remapped label`` (:func:`sym.remap_label`).
        self.labels: Dict = {}

    def remap_label(self, label: str, sig: sym.Perm, lam: sym.Perm) -> str:
        key = (label, sig, lam)
        out = self.labels.get(key)
        if out is None:
            out = self.labels[key] = sym.remap_label(label, sig, lam)
        return out

    def expand(
        self, entry: Entry, known,
    ) -> Tuple[List[Tuple[Entry, int]], int, int, Optional[Violation]]:
        """Expand ``entry`` and admit its new successors.

        A successor is new when its canonical state is not in ``known``
        and no earlier successor of ``entry`` shares it.
        Each new successor is checked with :func:`check_state` here, the
        only place invariants over whole states are evaluated.  That is
        sound: every known state was checked when it was admitted, and
        the invariants are closed under the renamings the canonicalizer
        applies.

        Returns ``(kids, n_succ, pruned, violation)``: ``kids`` holds
        ``(child entry, orbit size)`` per new successor in
        successor order, and ``n_succ`` counts every successor.  The
        first violation in successor order wins, whether a transition
        faulted while firing or a new state failed its check; then
        ``kids`` is empty and the counts are zero, so the expansion
        adds nothing.
        """
        st, trace, sig, lam = entry
        try:
            succ, pruned = expand(
                st, self.layout, self.table, por=self.reduce_por,
                bundle=self.bundle, runs=self.runs,
            )
            fault = None
        except ModelViolation as exc:
            succ, pruned, fault = exc.partial, 0, exc  # type: ignore[attr-defined]
        kids = []
        fresh = set()
        entries = st.entries
        for label, nxt in succ:
            try:
                # The canonicalizer renames the node ids an entry
                # holds, so an entry naming no real node is reported
                # before it gets there.  No known state holds such an
                # entry, so check_state would reach this one anyway.
                if nxt.entries != entries and any(
                    e != e0 and inv.check_entry(e, self.n)
                    for e, e0 in zip(nxt.entries, entries)
                ):
                    check_state(nxt, self.n)
                if self.canon is not None:
                    cnxt, rho_s, rho_l, orbit, _ = self.canon(nxt)
                else:
                    cnxt, (rho_s, rho_l), orbit = nxt, self.ids, 1
                if cnxt in known or cnxt in fresh:
                    continue
                fresh.add(cnxt)
                check_state(nxt, self.n)
            except ModelViolation as exc:
                return [], 0, 0, _traced(exc, label, entry)
            kids.append(((
                cnxt,
                trace + (self.remap_label(label, sig, lam),),
                sym.compose(sig, sym.invert(rho_s)),
                sym.compose(lam, sym.invert(rho_l)),
            ), orbit))
        if fault is not None:
            return [], 0, 0, _traced(fault, fault.label, entry)  # type: ignore[attr-defined]
        return kids, len(succ), pruned, None


def _bfs(
    init: MState,
    layout: DirectoryLayout,
    table: HandlerTable,
    max_states: int,
    depth: Optional[int] = None,
    reduce_sym: bool = True,
    reduce_por: bool = True,
    bundle=None,
    checkpoint=None,
) -> ExploreResult:
    """Breadth-first search from ``init``, one level at a time.

    With a ``checkpoint`` (:class:`repro.analyze.frontier.Checkpoint`)
    each finished level is committed, a committed run is resumed from
    its last level and a finished one returns its recorded result.
    """
    counts = ExploreResult(1, 0, False, None, 1, 0, 0)
    levels: List[List[Entry]] = [[root_entry(init)]]
    if checkpoint is not None:
        done = checkpoint.result()
        if done is not None:
            return done
        committed, saved = checkpoint.resume()
        if committed:
            levels, counts = committed, saved
        else:
            checkpoint.commit(levels[0], counts)
    _, transitions, truncated, _, sym_states, pruned, max_depth = counts
    visited = {entry[0] for level in levels for entry in level}
    level = deque(levels[-1])
    del levels  # earlier levels' traces: their states are in visited
    search = Search(init, layout, table, bundle, reduce_sym, reduce_por)
    violation = None
    while level and violation is None:
        nxt: deque = deque()
        while level:
            entry = level.popleft()
            max_depth = max(max_depth, len(entry[1]))
            if depth is not None and len(entry[1]) >= depth:
                truncated = True
                continue
            kids, n_succ, pr, violation = search.expand(entry, visited)
            if violation is not None:
                break
            transitions += n_succ
            pruned += pr
            for child, orbit in kids:
                if len(visited) >= max_states:
                    truncated = True
                    break
                visited.add(child[0])
                sym_states += orbit
                nxt.append(child)
        counts = ExploreResult(
            len(visited), transitions, truncated, violation,
            sym_states, pruned, max_depth,
        )
        level = nxt
        if checkpoint is not None and level and violation is None:
            checkpoint.commit(level, counts)
    return counts if checkpoint is None else checkpoint.finish(counts)


def check_model(
    n_nodes: int = 2,
    loads: int = 1,
    stores: int = 1,
    jobs: int = 1,
    max_states: int = 400_000,
    table: Optional[HandlerTable] = None,
    layout: Optional[DirectoryLayout] = None,
    n_lines: int = 1,
    depth: Optional[int] = None,
    frontier_dir: Optional[str] = None,
    reduce_sym: bool = True,
    reduce_por: bool = True,
    protocol: Optional[str] = None,
) -> ExploreResult:
    """Explore the n-node, L-line machine with sound reductions.

    ``protocol`` selects a registered bundle by name (default: the
    shipped bitvector protocol); its handler table and dispatch maps
    are what the mirror executes.  An explicit ``table`` overrides the
    bundle's (the mutation tests patch individual handlers).

    The search is the in-process BFS (:func:`_bfs`); ``states`` is
    exact and ``max_states`` caps the whole search.  With
    ``frontier_dir`` set the BFS checkpoints every level there and
    resumes a killed run, returning the result an in-memory run
    returns (see :mod:`repro.analyze.frontier`).  ``jobs`` must be 1:
    the search runs in one process.

    ``reduce_sym``/``reduce_por`` exist so tests can compare the
    reduced and flat explorations; production callers leave them on.
    """
    if not 2 <= n_nodes <= MAX_NODES:
        raise ConfigError(
            f"model checker supports 2-{MAX_NODES} nodes, not {n_nodes}"
        )
    if not 1 <= n_lines <= MAX_LINES:
        raise ConfigError(
            f"model checker supports 1-{MAX_LINES} lines, not {n_lines}"
        )
    if loads < 0 or stores < 0 or max_states <= 0:
        raise ConfigError("loads/stores must be >= 0, max_states > 0")
    if depth is not None and depth <= 0:
        raise ConfigError("depth must be > 0 when set")
    if jobs != 1:
        raise ConfigError(
            f"jobs={jobs}: the model check runs in one process"
        )
    bundle = None
    if protocol is not None:
        from repro.protocol import registry

        bundle = registry.get(protocol)
    if table is None:
        if bundle is not None:
            table = bundle.build_table()
        else:
            from repro.protocol import extensions

            table = build_handler_table()
            extensions.install(table)
    if layout is None:
        layout = DirectoryLayout(
            local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4
        )
    for k in range(n_lines):
        if layout.home_of(line_addr(k)) != 0:
            raise ConfigError("model lines must all be homed at node 0")

    init = initial_state(n_nodes, loads, stores, n_lines)

    checkpoint = None
    if frontier_dir is not None:
        from repro.analyze.frontier import Checkpoint

        checkpoint = Checkpoint(
            frontier_dir, init, table, max_states, depth,
            reduce_sym, reduce_por, bundle,
        )
    return _bfs(
        init, layout, table, max_states, depth=depth,
        reduce_sym=reduce_sym, reduce_por=reduce_por, bundle=bundle,
        checkpoint=checkpoint,
    )


# ----------------------------------------------------------------------
# Counterexample serialization (repro.fuzz.artifact pipeline)
# ----------------------------------------------------------------------


def counterexample_artifact(
    path, violation: Violation, n_nodes: int, n_lines: int = 1,
    protocol: str = "smtp-bitvector",
):
    """Write ``violation`` as a replayable fuzz artifact.

    The issue events in the trace become the op list (strictly
    serialized: ``max_outstanding=1``); evictions and message
    schedules are beyond ``run_ops``'s control, so replay re-drives
    the same traffic but reproduction of schedule-dependent bugs is
    best-effort.  Handler-table bugs (the mutation tests' kind)
    reproduce deterministically.
    """
    from repro.fuzz.artifact import write_artifact
    from repro.fuzz.campaign import FuzzCell
    from repro.fuzz.stress import FuzzOp, StressConfig

    def op_line(action: str) -> int:
        _, _, tail = action.partition(" L")
        return int(tail) if tail.isdigit() else 0

    ops: List[FuzzOp] = []
    per_line_count = [0] * max(1, n_lines)
    for step in violation.trace:
        node, _, action = step.partition(": ")
        if action.startswith("load"):
            ops.append(FuzzOp(int(node[1:]), "load", line_addr(op_line(action))))
        elif action.startswith("store"):
            k = op_line(action)
            per_line_count[k] += 1
            ops.append(FuzzOp(
                int(node[1:]), "store", line_addr(k), arg=per_line_count[k]
            ))
    cell = FuzzCell(
        seed=0,
        model="base",
        n_nodes=n_nodes,
        stress=StressConfig(
            n_ops=max(1, len(ops)), n_lines=max(1, n_lines),
            max_outstanding=1,
        ),
        max_cycles=500_000,
        protocol=protocol,
    )
    trace = [{"step": i, "label": label}
             for i, label in enumerate(violation.trace)]
    return write_artifact(
        path,
        cell,
        ops,
        status=violation.status,
        error=f"[model/{violation.code}] {violation}",
        error_type="ModelCheckViolation",
        snapshot=None,
        trace=trace,
    )
