"""A minimal cycle-indexed event wheel.

Components schedule callbacks at absolute cycles; the owner (node or
machine) fires due events once per cycle.  Insertion order is preserved
within a cycle so same-cycle hardware interactions stay deterministic.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple


class EventWheel:
    __slots__ = ("_heap", "_seq", "now")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(self, cycle: int, fn: Callable[[], None]) -> None:
        if cycle < self.now:
            raise ValueError(f"cannot schedule in the past: {cycle} < {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, fn))

    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + max(0, delay), fn)

    def tick(self, cycle: int) -> None:
        """Advance to ``cycle`` and run every event due at or before it."""
        self.now = cycle
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            _, _, fn = heapq.heappop(heap)
            fn()

    def next_event_cycle(self) -> int:
        """Cycle of the earliest pending event, or -1 if none."""
        return self._heap[0][0] if self._heap else -1
