"""Shared hardware buffers with protocol-thread reservations.

The paper's deadlock-avoidance scheme (§2.2) keeps one reserved
instance of each front-end/window resource that only the protocol
thread may use: application threads see capacity ``N - reserved`` while
the protocol thread sees the full ``N``.  Structures that hold ordered
instructions (decode/rename queues, LSQ) additionally keep *two logical
FIFOs* — one application section and one protocol section — over the
dynamically shared slots, with per-section head/tail pointers.

:class:`DualQueue` models exactly that; :class:`ReservedPool` models
counted resources (registers, queue slots, MSHRs) with the same
reservation rule.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class ReservedPool:
    """A counted resource pool with slots reserved for the protocol thread.

    ``acquire(protocol=False)`` succeeds only while application usage
    stays below ``total - reserved``; the protocol thread may consume
    every slot.  The pool tracks a peak-occupancy watermark for the
    protocol thread, which Table 9 reports.
    """

    __slots__ = ("name", "total", "reserved", "app_used", "proto_used", "proto_peak")

    def __init__(self, name: str, total: int, reserved: int = 0) -> None:
        if reserved > total:
            raise ValueError(f"{name}: reserved {reserved} > total {total}")
        self.name = name
        self.total = total
        self.reserved = reserved
        self.app_used = 0
        self.proto_used = 0
        self.proto_peak = 0

    @property
    def used(self) -> int:
        return self.app_used + self.proto_used

    def can_acquire(self, protocol: bool, n: int = 1) -> bool:
        limit = self.total if protocol else self.total - self.reserved
        return self.used + n <= limit

    def acquire(self, protocol: bool, n: int = 1) -> bool:
        """Take ``n`` slots; returns False (and takes nothing) if full."""
        if protocol:
            if self.used + n > self.total:
                return False
            self.proto_used += n
            if self.proto_used > self.proto_peak:
                self.proto_peak = self.proto_used
            return True
        # The application may never push total occupancy above
        # total - reserved: the last slot always remains reachable by
        # the protocol thread.
        if self.used + n > self.total - self.reserved:
            return False
        self.app_used += n
        return True

    def release(self, protocol: bool, n: int = 1) -> None:
        if protocol:
            if self.proto_used < n:
                raise ValueError(f"{self.name}: protocol release underflow")
            self.proto_used -= n
        else:
            if self.app_used < n:
                raise ValueError(f"{self.name}: app release underflow")
            self.app_used -= n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReservedPool({self.name}, {self.used}/{self.total}, "
            f"app={self.app_used}, proto={self.proto_used})"
        )


class BoundedQueue(Generic[T]):
    """A simple bounded FIFO used for controller and network queues."""

    __slots__ = ("name", "capacity", "_items")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self._items: Deque[T] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item: T) -> bool:
        """Append ``item``; returns False if the queue is full."""
        if self.full:
            return False
        self._items.append(item)
        return True

    def peek(self) -> Optional[T]:
        return self._items[0] if self._items else None

    def pop(self) -> T:
        return self._items.popleft()


class DualQueue(Generic[T]):
    """Shared slots forming two logical FIFOs (application / protocol).

    Capacity accounting follows the reservation rule: the application
    section may hold at most ``capacity - reserved`` entries *and* the
    two sections together at most ``capacity``.  Iteration order within
    each section is FIFO; the consumer alternates section priority
    cycle by cycle exactly as §2.2 describes.
    """

    __slots__ = ("name", "capacity", "reserved", "app", "proto")

    def __init__(self, name: str, capacity: int, reserved: int = 0) -> None:
        if reserved > capacity:
            raise ValueError(f"{name}: reserved {reserved} > capacity {capacity}")
        self.name = name
        self.capacity = capacity
        self.reserved = reserved
        self.app: Deque[T] = deque()
        self.proto: Deque[T] = deque()

    def __len__(self) -> int:
        return len(self.app) + len(self.proto)

    def can_push(self, protocol: bool) -> bool:
        if protocol:
            return len(self) < self.capacity
        return len(self) < self.capacity - self.reserved

    def push(self, item: T, protocol: bool) -> bool:
        if not self.can_push(protocol):
            return False
        (self.proto if protocol else self.app).append(item)
        return True
