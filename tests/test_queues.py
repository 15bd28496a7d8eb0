"""ReservedPool / BoundedQueue / DualQueue semantics, incl. the
reserved-slot deadlock-avoidance rule, with property-based checks."""

import pytest
from hypothesis import given, strategies as st

from repro.common.queues import BoundedQueue, DualQueue, ReservedPool


class TestReservedPool:
    def test_app_cannot_take_reserved_slot(self):
        p = ReservedPool("x", total=4, reserved=1)
        assert p.acquire(False)
        assert p.acquire(False)
        assert p.acquire(False)
        assert not p.acquire(False)  # slot 4 is reserved
        assert p.acquire(True)  # protocol can take it

    def test_protocol_can_use_all(self):
        p = ReservedPool("x", total=3, reserved=1)
        for _ in range(3):
            assert p.acquire(True)
        assert not p.acquire(True)

    def test_release_restores_capacity(self):
        p = ReservedPool("x", total=2, reserved=1)
        assert p.acquire(False)
        assert not p.acquire(False)
        p.release(False)
        assert p.acquire(False)

    def test_release_underflow_raises(self):
        p = ReservedPool("x", total=2)
        with pytest.raises(ValueError):
            p.release(False)
        with pytest.raises(ValueError):
            p.release(True)

    def test_peak_tracking(self):
        p = ReservedPool("x", total=8, reserved=1)
        p.acquire(True)
        p.acquire(True)
        p.release(True)
        p.acquire(True)
        assert p.proto_peak == 2

    def test_reserved_larger_than_total_rejected(self):
        with pytest.raises(ValueError):
            ReservedPool("x", total=1, reserved=2)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200
        )
    )
    def test_invariants_under_random_ops(self, ops):
        """Occupancy never exceeds total; app never intrudes on the
        reserve; counters never go negative."""
        p = ReservedPool("x", total=6, reserved=2)
        for protocol, is_acquire in ops:
            if is_acquire:
                p.acquire(protocol)
            else:
                try:
                    p.release(protocol)
                except ValueError:
                    pass
            assert 0 <= p.used <= p.total
            assert p.app_used <= p.total - p.reserved
            assert p.app_used >= 0 and p.proto_used >= 0


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue("q", 3)
        for i in range(3):
            assert q.push(i)
        assert not q.push(99)
        assert [q.pop() for _ in range(3)] == [0, 1, 2]

    def test_peek_does_not_remove(self):
        q = BoundedQueue("q", 2)
        q.push("a")
        assert q.peek() == "a"
        assert len(q) == 1

    def test_empty_peek(self):
        assert BoundedQueue("q", 1).peek() is None


class TestDualQueue:
    def test_app_blocked_by_reservation(self):
        q = DualQueue("q", capacity=3, reserved=1)
        assert q.push("a1", False)
        assert q.push("a2", False)
        assert not q.push("a3", False)
        assert q.push("p1", True)

    def test_protocol_uses_full_capacity(self):
        q = DualQueue("q", capacity=2, reserved=1)
        assert q.push("p1", True)
        assert q.push("p2", True)
        assert not q.push("p3", True)

    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_capacity_never_exceeded(self, pushes):
        q = DualQueue("q", capacity=5, reserved=2)
        for protocol in pushes:
            q.push(object(), protocol)
            assert len(q) <= 5
            assert len(q.app) <= 3
