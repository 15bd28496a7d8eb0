"""One DSM node: SMT core + cache hierarchy + memory controller.

The node wires the hierarchy's ports to the controller, installs the
protocol engine the machine model calls for (embedded PP vs the SMTp
protocol-thread port), and owns the node-local backing stores:

* ``memory_versions`` — per-line data-version tokens for application
  lines homed here (what SDRAM "contains"),
* ``pmem`` — the protocol memory (directory entries, handler scratch),
  functionally word-addressable.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.caches.hierarchy import CacheHierarchy
from repro.common.events import EventWheel
from repro.common.params import MachineParams
from repro.common.stats import NodeStats
from repro.memctrl.controller import MemoryController
from repro.memctrl.ppengine import PPEngine
from repro.network.messages import Message
from repro.protocol.directory import DirectoryLayout
from repro.protocol.isa import HandlerTable


class Node:
    def __init__(
        self,
        node_id: int,
        mp: MachineParams,
        wheel: EventWheel,
        layout: DirectoryLayout,
        handler_table: HandlerTable,
        send_to_network: Callable[[Message], None],
        words: Dict[int, int],
        bundle=None,
    ) -> None:
        self.node_id = node_id
        self.mp = mp
        self.wheel = wheel
        self.layout = layout
        self.stats = NodeStats(node=node_id)
        self.memory_versions: Dict[int, int] = {}
        self.pmem: Dict[int, int] = {}
        self.words = words

        self.hierarchy = CacheHierarchy(node_id, mp, self.stats)
        self.mc = MemoryController(
            node_id,
            mp,
            wheel,
            self.hierarchy,
            layout,
            handler_table,
            self.stats,
            self.memory_versions,
            send_to_network,
            bundle=bundle,
        )

        h = self.hierarchy
        h.schedule = wheel.schedule
        h.mshrs.clock = wheel
        h.app_miss_port = self.mc.app_miss
        h.proto_miss_port = self.mc.proto_miss
        h.writeback_port = self.mc.writeback
        h.proto_writeback_port = self.mc.proto_writeback
        h.read_word = lambda addr: words.get(addr, 0)
        h.write_word = words.__setitem__

        if mp.protocol_engine == "pp":
            self.mc.engine = PPEngine(
                node_id, mp, self.mc, layout, self.pmem, self.stats
            )
        # For SMTp the machine installs the protocol-thread port after
        # the core exists.

        #: The SMT core; installed by the machine (None in memory-only
        #: harnesses/tests).
        self.core = None

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Outstanding transactions visible at this node."""
        return (
            len(self.hierarchy.mshrs)
            + len(self.mc.local_queue)
            + sum(len(q) for q in self.mc.ni_in)
            + len(self.mc.probe_replies)
        )

    def describe_state(self) -> str:
        """One-line queue and engine dump for the deadlock watchdog."""
        engine = "none"
        if self.mc.engine is not None:
            engine = "ready" if self.mc.engine.can_accept() else "busy"
        return (
            f"node {self.node_id}: mshrs={len(self.hierarchy.mshrs)} "
            f"lmi={len(self.mc.local_queue)} "
            f"ni={[len(q) for q in self.mc.ni_in]} "
            f"probes={len(self.mc.probe_replies)} engine={engine}"
        )
