"""EventWheel ordering and scheduling semantics."""

import pytest

from repro.common.events import EventWheel


class TestEventWheel:
    def test_fires_at_cycle(self):
        w = EventWheel()
        fired = []
        w.schedule_at(5, lambda: fired.append("a"))
        w.tick(4)
        assert fired == []
        w.tick(5)
        assert fired == ["a"]

    def test_relative_schedule(self):
        w = EventWheel()
        w.tick(10)
        fired = []
        w.schedule(3, lambda: fired.append(1))
        w.tick(12)
        assert not fired
        w.tick(13)
        assert fired == [1]

    def test_same_cycle_insertion_order(self):
        w = EventWheel()
        fired = []
        for i in range(5):
            w.schedule_at(2, lambda i=i: fired.append(i))
        w.tick(2)
        assert fired == [0, 1, 2, 3, 4]

    def test_past_schedule_raises(self):
        w = EventWheel()
        w.tick(10)
        with pytest.raises(ValueError):
            w.schedule_at(5, lambda: None)

    def test_zero_delay_clamps_to_now(self):
        w = EventWheel()
        w.tick(7)
        fired = []
        w.schedule(0, lambda: fired.append(1))
        w.tick(7)
        assert fired == [1]

    def test_event_scheduling_event(self):
        w = EventWheel()
        fired = []

        def first():
            fired.append("first")
            w.schedule(0, lambda: fired.append("second"))

        w.schedule_at(1, first)
        w.tick(1)
        assert fired == ["first", "second"]

    def test_next_event_cycle(self):
        w = EventWheel()
        assert w.next_event_cycle() == -1
        w.schedule_at(9, lambda: None)
        w.schedule_at(4, lambda: None)
        assert w.next_event_cycle() == 4

    def test_len_counts_pending(self):
        w = EventWheel()
        w.schedule_at(1, lambda: None)
        w.schedule_at(2, lambda: None)
        assert len(w) == 2
        w.tick(1)
        assert len(w) == 1

    # The scheduler's idle fast-forward leans on next_event_cycle for
    # its wake target; pin down its behaviour around drains.

    def test_next_event_cycle_after_partial_drain(self):
        w = EventWheel()
        w.schedule_at(3, lambda: None)
        w.schedule_at(8, lambda: None)
        w.schedule_at(8, lambda: None)
        w.tick(3)
        assert w.next_event_cycle() == 8
        w.tick(8)
        assert w.next_event_cycle() == -1
        assert len(w) == 0

    def test_next_event_cycle_sees_rescheduled_work(self):
        w = EventWheel()

        def again():
            w.schedule(5, lambda: None)

        w.schedule_at(2, again)
        w.tick(2)
        assert w.next_event_cycle() == 7

    def test_same_cycle_fifo_interleaved_schedules(self):
        # FIFO must hold even when same-cycle insertions are
        # interleaved with insertions for other cycles.
        w = EventWheel()
        fired = []
        w.schedule_at(4, lambda: fired.append("a"))
        w.schedule_at(9, lambda: fired.append("late"))
        w.schedule_at(4, lambda: fired.append("b"))
        w.schedule_at(2, lambda: fired.append("early"))
        w.schedule_at(4, lambda: fired.append("c"))
        w.tick(2)
        w.tick(4)
        assert fired == ["early", "a", "b", "c"]
        w.tick(9)
        assert fired == ["early", "a", "b", "c", "late"]

    def test_past_schedule_rejected_after_drain(self):
        # Draining a cycle advances "now"; scheduling at or before a
        # fully drained cycle must still raise, not silently drop.
        w = EventWheel()
        w.schedule_at(6, lambda: None)
        w.tick(6)
        with pytest.raises(ValueError):
            w.schedule_at(5, lambda: None)
