"""Common scaffolding for the six workloads.

Every application exposes ``make_sources(machine, **params)`` which
returns one list of :class:`ThreadProgram` per node.  This module
holds the shared skeleton: thread/node geometry, address-space and
barrier setup, and per-thread program construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List

from repro.apps.compile import build_program
from repro.apps.program import KernelBuilder, ThreadProgram
from repro.apps.runtime import AddressSpace, TreeBarrier

if TYPE_CHECKING:
    from repro.core.machine import Machine

#: Each thread's code region (synthetic PCs).
PC_STRIDE = 1 << 20
PC_BASE = 1 << 30

BodyFn = Callable[[KernelBuilder, int], Iterator]


class AppContext:
    """Geometry + runtime shared by one application instance."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.n_nodes = machine.mp.n_nodes
        self.ways = machine.mp.proc.app_threads
        self.n_threads = self.n_nodes * self.ways
        self.space = AddressSpace(machine.layout, self.n_nodes)
        self.barrier = TreeBarrier(self.space, self.n_threads, self.node_of)

    def node_of(self, g: int) -> int:
        return g // self.ways

    def build_sources(self, body: BodyFn) -> List[List[ThreadProgram]]:
        """Instantiate ``body(k, g)`` for every global thread ``g``.

        This is the single chokepoint for source construction:
        :func:`repro.apps.compile.build_program` picks the superblock-
        compiled program classes, or the reference interpreter under
        ``REPRO_APP_INTERP=1``.
        """
        sources: List[List[ThreadProgram]] = [[] for _ in range(self.n_nodes)]
        for g in range(self.n_threads):
            prog = build_program(
                body, lambda kk, gg=g: body(kk, gg),
                thread=g % self.ways, pc_base=PC_BASE + g * PC_STRIDE,
                wheel=self.machine.wheel,
            )
            sources[self.node_of(g)].append(prog)
        return sources

    # -- distribution helpers ------------------------------------------------
    def split(self, n_items: int, g: int) -> range:
        """Contiguous share of ``n_items`` for thread ``g``."""
        per = n_items // self.n_threads
        extra = n_items % self.n_threads
        start = g * per + min(g, extra)
        return range(start, start + per + (1 if g < extra else 0))

    def block_map(self, n_items: int) -> "BlockMap":
        return BlockMap(n_items, self.n_threads)


class BlockMap:
    """Contiguous block distribution with uneven remainders.

    Maps item index -> owning thread and local offset, so applications
    can place each thread's block at its home node without requiring
    item counts divisible by the thread count.
    """

    def __init__(self, n_items: int, n_threads: int) -> None:
        self.n_items = n_items
        self.n_threads = n_threads
        per = n_items // n_threads
        extra = n_items % n_threads
        self.starts: List[int] = []
        pos = 0
        for g in range(n_threads):
            self.starts.append(pos)
            pos += per + (1 if g < extra else 0)
        self.starts.append(pos)
        self._owner = [0] * n_items
        for g in range(n_threads):
            for i in range(self.starts[g], self.starts[g + 1]):
                self._owner[i] = g

    def owner_of(self, item: int) -> int:
        return self._owner[item]

    def local_index(self, item: int) -> int:
        return item - self.starts[self._owner[item]]

    def range_of(self, g: int) -> range:
        return range(self.starts[g], self.starts[g + 1])

    def count_of(self, g: int) -> int:
        return self.starts[g + 1] - self.starts[g]
