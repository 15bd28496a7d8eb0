"""Branch prediction hardware: 21264-style tournament predictor, BTB,
and per-thread return address stacks with mis-speculation repair.

Per the paper (§3): each thread has a private local-history table,
global path history, and choice history; the local and global pattern
(saturating-counter) tables are shared between threads.  The global
path history is not updated speculatively — it is updated at branch
resolution.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def _sat_inc(v: int, max_v: int = 3) -> int:
    return v + 1 if v < max_v else v


def _sat_dec(v: int) -> int:
    return v - 1 if v > 0 else v


class TournamentPredictor:
    def __init__(
        self,
        n_threads: int,
        local_history_bits: int = 10,
        global_history_bits: int = 12,
    ) -> None:
        self.n_threads = n_threads
        self.local_bits = local_history_bits
        self.global_bits = global_history_bits
        local_entries = 1 << local_history_bits
        # Private per-thread local histories; shared pattern tables.
        self._local_history: List[List[int]] = [
            [0] * 1024 for _ in range(n_threads)
        ]
        self._local_pht = [1] * local_entries  # 2-bit counters
        self._global_pht = [1] * (1 << global_history_bits)
        self._choice_pht = [1] * (1 << global_history_bits)
        self._global_history = [0] * n_threads

    def _indices(self, thread: int, pc: int) -> Tuple[int, int, int]:
        local_slot = (pc >> 2) & 1023
        local_index = self._local_history[thread][local_slot] & (
            (1 << self.local_bits) - 1
        )
        ghist = self._global_history[thread]
        global_index = (ghist ^ (pc >> 2)) & ((1 << self.global_bits) - 1)
        return local_slot, local_index, global_index

    def predict(self, thread: int, pc: int) -> bool:
        _, local_index, global_index = self._indices(thread, pc)
        local_pred = self._local_pht[local_index] >= 2
        global_pred = self._global_pht[global_index] >= 2
        use_global = self._choice_pht[global_index] >= 2
        return global_pred if use_global else local_pred

    def update(self, thread: int, pc: int, taken: bool) -> None:
        """Resolve a branch: train tables and shift histories."""
        local_slot, local_index, global_index = self._indices(thread, pc)
        local_pred = self._local_pht[local_index] >= 2
        global_pred = self._global_pht[global_index] >= 2
        if local_pred != global_pred:
            # Train the chooser toward whichever component was right.
            if global_pred == taken:
                self._choice_pht[global_index] = _sat_inc(
                    self._choice_pht[global_index]
                )
            else:
                self._choice_pht[global_index] = _sat_dec(
                    self._choice_pht[global_index]
                )
        if taken:
            self._local_pht[local_index] = _sat_inc(self._local_pht[local_index])
            self._global_pht[global_index] = _sat_inc(self._global_pht[global_index])
        else:
            self._local_pht[local_index] = _sat_dec(self._local_pht[local_index])
            self._global_pht[global_index] = _sat_dec(self._global_pht[global_index])
        hist = self._local_history[thread]
        hist[local_slot] = ((hist[local_slot] << 1) | int(taken)) & (
            (1 << self.local_bits) - 1
        )
        self._global_history[thread] = (
            (self._global_history[thread] << 1) | int(taken)
        ) & ((1 << self.global_bits) - 1)


class BTB:
    """Set-associative branch target buffer (256 sets, 4-way)."""

    def __init__(self, sets: int = 256, assoc: int = 4) -> None:
        self.sets = sets
        self.assoc = assoc
        self._entries: List[List[Tuple[int, int]]] = [[] for _ in range(sets)]

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.sets

    def lookup(self, pc: int) -> Optional[int]:
        ways = self._entries[self._index(pc)]
        for i, (tag, target) in enumerate(ways):
            if tag == pc:
                ways.insert(0, ways.pop(i))  # MRU
                return target
        return None

    def install(self, pc: int, target: int) -> None:
        ways = self._entries[self._index(pc)]
        for i, (tag, _) in enumerate(ways):
            if tag == pc:
                ways[i] = (pc, target)
                ways.insert(0, ways.pop(i))
                return
        ways.insert(0, (pc, target))
        if len(ways) > self.assoc:
            ways.pop()


class ReturnAddressStack:
    """Per-thread RAS with top-of-stack repair (paper cites [37])."""

    def __init__(self, entries: int = 32) -> None:  # Table 2: 32 entries
        self.entries = entries
        self._stack: List[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self.entries:
            self._stack.pop(0)
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        return self._stack.pop() if self._stack else None

    def snapshot(self) -> Tuple[int, Optional[int]]:
        """Checkpoint: top index and its value (cheap repair state)."""
        top = self._stack[-1] if self._stack else None
        return len(self._stack), top

    def repair(self, snap: Tuple[int, Optional[int]]) -> None:
        depth, top = snap
        del self._stack[depth:]
        while len(self._stack) < depth:
            self._stack.append(0)
        if top is not None and self._stack:
            self._stack[-1] = top
