"""Shared-memory application runtime: placement, barriers, locks.

Everything here is built from ordinary loads, stores, atomics and spin
loads flowing through the simulated coherence protocol — barriers and
locks generate real directory traffic, exactly the traffic the paper's
evaluation measures.

* :class:`AddressSpace` — bump allocator with explicit home-node
  placement (the paper's applications use careful page placement).
* :class:`TreeBarrier` — software combining-tree barrier with
  sense-free round counters; arrive flags live at the *parent's* node
  and release flags at the *child's* node so every spin is node-local.
* :class:`SpinLock` — test–lock–test–set acquire (the optimized Ocean
  pattern, §3) with exponential backoff.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

from repro.apps.program import AWAIT, KernelBuilder
from repro.protocol.directory import DirectoryLayout


class AddressSpace:
    """Bump allocator over the machine's home-partitioned memory."""

    def __init__(self, layout: DirectoryLayout, n_nodes: int) -> None:
        self.layout = layout
        self.n_nodes = n_nodes
        base = 64 * 1024  # keep page zero free
        self._next = [
            node * layout.local_memory_bytes + base for node in range(n_nodes)
        ]

    def alloc(self, node: int, nbytes: int, align: int = 128) -> int:
        """Allocate ``nbytes`` homed at ``node``."""
        p = self._next[node]
        p = (p + align - 1) // align * align
        self._next[node] = p + nbytes
        limit = (node + 1) * self.layout.local_memory_bytes
        if self._next[node] > limit:
            raise MemoryError(
                f"node {node} local memory exhausted "
                f"({self._next[node] - node * self.layout.local_memory_bytes} bytes)"
            )
        return p


def spin_until(
    k: KernelBuilder,
    addr: int,
    pred: Callable[[int], bool],
    backoff: int = 8,
    max_backoff: int = 128,
) -> Iterator:
    """Spin (with exponential backoff) until ``pred(word)`` holds.

    Emits the canonical load/branch spin loop at a stable PC so the
    branch predictor trains on it; returns the satisfying value.
    """
    pc = k.here()
    wait = backoff
    while True:
        k.set_pc(pc)
        k.spin_load(addr)
        k.mark_spin()
        value = yield AWAIT
        ok = pred(value)
        k.branch(not ok, pc)
        k.mark_spin()
        if ok:
            return value
        yield ("sleep", wait)
        wait = min(wait * 2, max_backoff)


class TreeBarrier:
    """Binary combining-tree barrier over all application threads.

    Thread ``g`` (global index) spins on its children's arrive words
    (placed at ``g``'s node) and on its own release word (also local);
    it writes its arrive word remotely to its parent's node.  Round
    counters replace sense reversal.
    """

    def __init__(
        self,
        space: AddressSpace,
        n_threads: int,
        node_of: Callable[[int], int],
    ) -> None:
        self.n_threads = n_threads
        self.node_of = node_of
        # arrive[g]: written by g, spun on by parent(g) -> home it at
        # the parent's node.  release[g]: written by parent, spun on by
        # g -> home it at g's node.
        self.arrive: List[int] = []
        self.release: List[int] = []
        for g in range(n_threads):
            parent = (g - 1) // 2 if g else 0
            self.arrive.append(space.alloc(node_of(parent), 128))
            self.release.append(space.alloc(node_of(g), 128))
        self.rounds: Dict[int, int] = {g: 0 for g in range(n_threads)}

    def _children(self, g: int) -> List[int]:
        return [c for c in (2 * g + 1, 2 * g + 2) if c < self.n_threads]

    def wait(self, k: KernelBuilder, g: int) -> Iterator:
        """Coroutine: block until all threads reach this barrier."""
        self.rounds[g] += 1
        rnd = self.rounds[g]
        for c in self._children(g):
            yield from spin_until(k, self.arrive[c], lambda v, r=rnd: v >= r)
        if g == 0:
            for c in self._children(g):
                k.store(self.release[c], value=rnd)
            yield
        else:
            k.store(self.arrive[g], value=rnd)
            yield
            yield from spin_until(k, self.release[g], lambda v, r=rnd: v >= r)
            for c in self._children(g):
                k.store(self.release[c], value=rnd)
            yield


class SpinLock:
    """Test–lock–test–set spin lock (the paper's optimized sequence)."""

    def __init__(self, space: AddressSpace, node: int) -> None:
        self.addr = space.alloc(node, 128)

    def acquire(self, k: KernelBuilder) -> Iterator:
        backoff = 8
        while True:
            # Test: spin on a cached copy until the lock looks free.
            yield from spin_until(k, self.addr, lambda v: v == 0)
            # Set: one atomic attempt; on failure, back off and retest.
            k.atomic(self.addr, "tas")
            k.mark_spin()
            got = yield AWAIT
            if got == 0:
                return
            yield ("sleep", backoff)
            backoff = min(backoff * 2, 256)

    def release(self, k: KernelBuilder) -> None:
        """Emit the releasing store (caller yields at its flush point)."""
        k.store(self.addr, value=0)
