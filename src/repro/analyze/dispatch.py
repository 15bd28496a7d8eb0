"""Pass 2: dispatch-completeness analysis.

Three questions about the dispatch maps in
:mod:`repro.protocol.handlers` (with the active-memory extension rows
installed, exactly as :class:`repro.core.machine.Machine` runs them):

* **Coverage** — does every :class:`MsgType` the fabric can carry
  resolve to a handler?  ``L2_PROBE_REPLY`` is node-internal (it
  resolves through ``PROBE_DISPATCH`` by probe kind, never by type),
  every other type must appear in ``NETWORK_DISPATCH``; the request
  types additionally need ``LOCAL_REMOTE_DISPATCH`` (requester-side
  forwarding) rows, and the probe kinds need ``PROBE_DISPATCH`` rows.
* **Dead handlers** — table entries no dispatch map can ever reach.
* **(state x msg) enumeration** — run each home-side handler
  functionally against every directory state with representative
  owner/sharer/waiter variants, and each requester/probed-side handler
  against representative header variants, reporting reachable TRAPs
  and activations that exceed the static worst-case instruction bound.

The TRAP findings double as documentation of the protocol's *intended*
impossible transitions; the justified ones carry suppressions in
:mod:`repro.analyze.suppressions`, and the small-model checker (pass
3) is the evidence that they are in fact unreachable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.network.messages import PROBE_KIND, Message, MsgType
from repro.protocol import directory as d
from repro.protocol.directory import DirectoryLayout
from repro.protocol.handlers import (
    LOCAL_HOME_DISPATCH,
    LOCAL_REMOTE_DISPATCH,
    NETWORK_DISPATCH,
    PROBE_DISPATCH,
    boot_registers,
)
from repro.protocol.isa import ADDR, HDR, HandlerTable, POp
from repro.protocol.semantics import FunctionalRunner
from repro.analyze.absint import handler_side
from repro.analyze.findings import Finding, SEV_ERROR

from repro.memctrl.dispatch import incoming_header

#: Node ids used by the symbolic enumeration (6-bit fields, so any
#: small distinct values work): the home runs the handler, the
#: requester asks, the bystander is some third party.
HOME, REQUESTER, BYSTANDER = 0, 1, 2

#: The interventions that probe the local L2 (each reply needs a
#: PROBE_DISPATCH row) and the requests a home services.
_PROBE_KINDS = tuple(PROBE_KIND)
_REQUEST_TYPES = (MsgType.GET, MsgType.GETX, MsgType.UPGRADE)


def _entry_variants(n_nodes: int = 4) -> List[Tuple[str, int]]:
    """Representative directory entries covering every state and the
    owner/sharer/waiter relationships handlers branch on."""
    req, other = REQUESTER, BYSTANDER
    variants = [
        ("UNOWNED", d.encode(d.UNOWNED)),
        ("SHARED{req}", d.encode(d.SHARED, vector=1 << req)),
        ("SHARED{other}", d.encode(d.SHARED, vector=1 << other)),
        ("SHARED{req,other}", d.encode(d.SHARED, vector=(1 << req) | (1 << other))),
        ("EXCLUSIVE(owner=req)", d.encode(d.EXCLUSIVE, owner=req)),
        ("EXCLUSIVE(owner=other)", d.encode(d.EXCLUSIVE, owner=other)),
        ("BUSY_SHARED(owner=other,waiter=req)",
         d.encode(d.BUSY_SHARED, owner=other, waiter=req)),
        ("BUSY_EXCLUSIVE(owner=other,waiter=req)",
         d.encode(d.BUSY_EXCLUSIVE, owner=other, waiter=req)),
        # The writeback-vs-intervention race: the probed old owner's
        # PUT/SWB/XFER arrives while the entry is parked BUSY on it.
        ("BUSY_SHARED(owner=req,waiter=other)",
         d.encode(d.BUSY_SHARED, owner=req, waiter=other)),
        ("BUSY_EXCLUSIVE(owner=req,waiter=other)",
         d.encode(d.BUSY_EXCLUSIVE, owner=req, waiter=other)),
    ]
    return variants


def _header_variants(mtype: MsgType) -> Iterator[Tuple[str, Message]]:
    """Representative incoming messages for non-home handlers."""
    if mtype is MsgType.L2_PROBE_REPLY:
        # Probe-done handlers branch on found/dirty.
        for found in (False, True):
            for dirty in (False, True):
                msg = Message(
                    mtype, 0x2000, src=HOME, dest=REQUESTER,
                    requester=BYSTANDER, found=found, dirty=dirty,
                    version=1 if found else 0,
                )
                yield f"found={found},dirty={dirty}", msg
        return
    msg = Message(mtype, 0x2000, src=HOME, dest=REQUESTER, requester=REQUESTER)
    yield "plain", msg


class _UncachedStub:
    """Accept uncached ops during enumeration; the static pass already
    vets header composition, so only the SENDH/SENDA pairing is
    tracked (to keep the runner faithful, not to re-check it)."""

    def __init__(self) -> None:
        self.latched: Optional[int] = None
        self.sends: List[Tuple[int, int]] = []

    def __call__(self, instr, value: int) -> None:
        if instr.op is POp.SENDH:
            self.latched = value
        elif instr.op is POp.SENDA:
            self.sends.append((self.latched or 0, value))
            self.latched = None
        # PROBE/COMPLETE/RESEND/MEMWR/AMO/SWITCH/LDCTXT: no machine to
        # act on during symbolic enumeration.


def _run_once(
    table: HandlerTable,
    layout: DirectoryLayout,
    name: str,
    node_id: int,
    msg: Message,
    entry: Optional[int],
) -> Tuple[Optional[int], int]:
    """Execute ``name`` functionally; returns (trap_code, instrs)."""
    regs = boot_registers(layout, node_id)
    regs[ADDR] = msg.addr
    regs[HDR] = incoming_header(msg)
    dir_addr = layout.dir_entry_addr(msg.addr)
    pmem: Dict[int, int] = {}
    if entry is not None:
        pmem[dir_addr] = entry
    runner = FunctionalRunner(
        regs, lambda a: pmem.get(a, 0), pmem.__setitem__, _UncachedStub()
    )
    try:
        runner.run(table[name])
    except ProtocolError:
        # TRAP: the trap code is the imm of the trapping instruction;
        # recover it from the message rather than parsing the string.
        return _trap_code_of(table, name), runner.instructions_executed
    return None, runner.instructions_executed


def _trap_code_of(table: HandlerTable, name: str) -> int:
    for instr in table[name].instrs:
        if instr.op is POp.TRAP:
            return instr.imm
    return -1


def run_dispatch_pass(
    table: HandlerTable,
    layout: Optional[DirectoryLayout] = None,
    worst_cases: Optional[Dict[str, int]] = None,
    bundle=None,
) -> Tuple[List[Finding], Dict[str, object]]:
    """Run the full dispatch-completeness pass.

    ``worst_cases`` maps handler name to the static pass's bound; when
    given, every enumeration run is checked against it.  ``bundle``
    selects whose dispatch tables are analyzed (a
    :class:`repro.protocol.registry.ProtocolBundle`); None analyzes
    the default protocol's module-level tables.
    """
    if layout is None:
        layout = DirectoryLayout(
            local_memory_bytes=1 << 22, line_bytes=128, entry_bytes=4
        )
    if bundle is None:
        network, local_home, local_remote, probe = (
            NETWORK_DISPATCH, LOCAL_HOME_DISPATCH,
            LOCAL_REMOTE_DISPATCH, PROBE_DISPATCH,
        )
    else:
        network = bundle.network_dispatch
        local_home = bundle.local_home_dispatch
        local_remote = bundle.local_remote_dispatch
        probe = bundle.probe_dispatch
    findings: List[Finding] = []
    stats: Dict[str, object] = {}

    # --- coverage ------------------------------------------------------
    for mtype in MsgType:
        if mtype is MsgType.L2_PROBE_REPLY:
            continue
        if mtype not in network:
            findings.append(Finding(
                "dispatch", "unhandled-message", "",
                f"MsgType.{mtype.name} has no NETWORK_DISPATCH row: the "
                "fabric can deliver it but no handler services it",
                detail={"msg": mtype.name},
            ))
    for mtype in _REQUEST_TYPES:
        if mtype not in local_remote:
            findings.append(Finding(
                "dispatch", "unhandled-message", "",
                f"request MsgType.{mtype.name} has no LOCAL_REMOTE_DISPATCH "
                "row: a local miss to a remote home cannot be forwarded",
                detail={"msg": mtype.name, "map": "LOCAL_REMOTE_DISPATCH"},
            ))
    for mtype in (*_REQUEST_TYPES, MsgType.PUT):
        if mtype not in local_home:
            findings.append(Finding(
                "dispatch", "unhandled-message", "",
                f"locally-originated MsgType.{mtype.name} has no "
                "LOCAL_HOME_DISPATCH row",
                detail={"msg": mtype.name, "map": "LOCAL_HOME_DISPATCH"},
            ))
    for mtype in _PROBE_KINDS:
        if mtype not in probe:
            findings.append(Finding(
                "dispatch", "unhandled-message", "",
                f"probe kind MsgType.{mtype.name} has no PROBE_DISPATCH "
                "row: its L2 probe replies cannot be serviced",
                detail={"msg": mtype.name, "map": "PROBE_DISPATCH"},
            ))

    # Dispatch targets must exist in the placed table.
    dispatched: Dict[str, str] = {}
    for map_name, mapping in (
        ("NETWORK_DISPATCH", network),
        ("LOCAL_HOME_DISPATCH", local_home),
        ("LOCAL_REMOTE_DISPATCH", local_remote),
        ("PROBE_DISPATCH", probe),
    ):
        for mtype, name in mapping.items():
            dispatched.setdefault(name, map_name)
            if name not in table:
                findings.append(Finding(
                    "dispatch", "missing-handler", name,
                    f"{map_name}[{mtype.name}] names {name!r} but the "
                    "handler table has no such program",
                    detail={"msg": mtype.name, "map": map_name},
                ))

    # --- dead handlers -------------------------------------------------
    for name in sorted(table.by_name):
        if name not in dispatched:
            findings.append(Finding(
                "dispatch", "dead-handler", name,
                f"{name} is placed in the handler table but no dispatch "
                "map can ever reach it",
            ))

    # --- (state x msg) functional enumeration --------------------------
    pairs = 0
    worst_cases = worst_cases or {}
    for mtype, name in sorted(network.items(), key=lambda kv: kv[0].name):
        if name not in table:
            continue  # already reported as missing-handler
        side = handler_side(name, bundle)
        if side == "home":
            runs: List[Tuple[str, Message, Optional[int]]] = []
            for label, entry in _entry_variants():
                msg = Message(
                    mtype, 0x2000, src=REQUESTER, dest=HOME,
                    requester=REQUESTER,
                    dirty=(mtype in (MsgType.PUT, MsgType.SWB, MsgType.XFER)),
                    version=1,
                )
                runs.append((label, msg, entry))
            node_id = HOME
        else:
            runs = [
                (label, msg, None) for label, msg in _header_variants(mtype)
            ]
            node_id = REQUESTER
        for label, msg, entry in runs:
            pairs += 1
            trap, n_instrs = _run_once(table, layout, name, node_id, msg, entry)
            if trap is not None:
                findings.append(Finding(
                    "dispatch", "trap-reachable", name,
                    f"({label}, {mtype.name}) reaches TRAP({trap}) in "
                    f"{name}: the pair is either impossible-by-design "
                    "(suppress with justification) or unhandled",
                    detail={"state": label, "msg": mtype.name, "trap": trap},
                ))
            bound = worst_cases.get(name)
            if bound is not None and n_instrs > bound:
                findings.append(Finding(
                    "dispatch", "worst-case-exceeded", name,
                    f"({label}, {mtype.name}) executed {n_instrs} "
                    f"instructions, above the static bound {bound}",
                    detail={"state": label, "msg": mtype.name,
                            "executed": n_instrs, "bound": bound},
                ))
    # Probe-done handlers are reached via PROBE_DISPATCH, not
    # NETWORK_DISPATCH; enumerate their found/dirty headers too.
    for kind, name in sorted(probe.items(), key=lambda kv: kv[0].name):
        if name not in table:
            continue
        for label, msg in _header_variants(MsgType.L2_PROBE_REPLY):
            pairs += 1
            msg.probe_kind = kind
            trap, n_instrs = _run_once(table, layout, name, REQUESTER, msg, None)
            if trap is not None:
                findings.append(Finding(
                    "dispatch", "trap-reachable", name,
                    f"({label}, {kind.name} reply) reaches TRAP({trap}) "
                    f"in {name}",
                    detail={"state": label, "msg": kind.name, "trap": trap},
                ))
            bound = worst_cases.get(name)
            if bound is not None and n_instrs > bound:
                findings.append(Finding(
                    "dispatch", "worst-case-exceeded", name,
                    f"({label}, {kind.name} reply) executed {n_instrs} "
                    f"instructions, above the static bound {bound}",
                    detail={"state": label, "msg": kind.name,
                            "executed": n_instrs, "bound": bound},
                ))

    stats["message_types"] = sum(1 for m in MsgType) - 1
    stats["handlers"] = len(table.by_name)
    stats["pairs_enumerated"] = pairs
    stats["errors"] = sum(1 for f in findings if f.severity == SEV_ERROR)
    return findings, stats
