"""Tests for the deterministic event queue."""

import pytest

from repro.network.events import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("late"))
        queue.push(1.0, lambda: fired.append("early"))
        while queue:
            queue.pop_item_until(None)[1]()
        assert fired == ["early", "late"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("first"))
        queue.push(1.0, lambda: fired.append("second"))
        while queue:
            queue.pop_item_until(None)[1]()
        assert fired == ["first", "second"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        event.cancel()
        while queue:
            popped = queue.pop_entry()
            if popped is None:
                break
            popped[2].action()
        assert fired == ["kept"]

    def test_peek_time(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        queue.push(3.0, lambda: None)
        assert queue.peek_time() == 3.0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(4.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 4.0

    def test_empty_queue(self):
        queue = EventQueue()
        assert not queue
        assert queue.pop_entry() is None
        assert queue.pop_item_until(None) is None
        assert queue.peek_time() is None

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, lambda: None)

    def test_len(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2


class TestLiveCount:
    """``len`` counts only events that will still fire (regression:
    cancelled events used to be counted until they were lazily popped)."""

    def test_cancel_decrements_immediately(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert len(queue) == 1
        assert bool(queue)

    def test_all_cancelled_queue_is_falsy(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(3)]
        for event in events:
            event.cancel()
        assert len(queue) == 0
        assert not queue
        assert queue.pop_entry() is None

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop_entry()
        assert popped[2] is event
        event.cancel()  # too late: it already fired
        assert len(queue) == 1
        assert queue.pop_entry() is not None
        assert len(queue) == 0

    def test_pop_decrements(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push_item(2.0, ("payload",))
        assert len(queue) == 2
        queue.pop_item_until(None)
        assert len(queue) == 1
        queue.pop_entry()
        assert len(queue) == 0


class TestFastPathEntries:
    def test_push_item_round_trip(self):
        queue = EventQueue()
        payload = ("receiver", "sender", "message", False)
        queue.push_item(1.5, payload)
        assert queue.peek_time() == 1.5
        time, item = queue.pop_item_until(None)
        assert time == 1.5
        assert item is payload

    def test_pop_returns_pushed_callable(self):
        queue = EventQueue()
        fired = []
        queue.push_item(1.0, lambda: fired.append("ran"))
        _, action = queue.pop_item_until(None)
        action()
        assert fired == ["ran"]

    def test_pop_item_until_respects_limit(self):
        queue = EventQueue()
        queue.push_item(1.0, "early")
        queue.push_item(3.0, "late")
        assert queue.pop_item_until(2.0) == (1.0, "early")
        assert queue.pop_item_until(2.0) is None
        assert len(queue) == 1  # the late entry is untouched
        assert queue.pop_item_until(None) == (3.0, "late")

    def test_pop_item_until_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push_item(2.0, "kept")
        event.cancel()
        assert queue.pop_item_until(5.0) == (2.0, "kept")
        assert queue.pop_item_until(5.0) is None

    def test_negative_time_rejected_on_fast_path(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push_item(-0.5, "nope")


class _Block:
    """Stands in for a batched-engine delivery block: only ``size`` matters."""

    def __init__(self, size):
        self.size = size


class TestSequenceReservation:
    def test_reserved_ranges_interleave_like_individual_pushes(self):
        # One queue reserves a range for a block, the other pushes the
        # block's entries one by one; every other entry must get the same
        # sequence number in both.
        queue, reference = EventQueue(), EventQueue()
        queue.push(2.0, lambda: None)
        reference.push(2.0, lambda: None)
        first = queue.reserve_sequences(3)
        queue.push_block(1.0, first, _Block(3))
        for _ in range(3):
            reference.push_item(1.0, "single")
        queue.push_item(1.0, "after")
        reference.push_item(1.0, "after")
        # An empty reservation consumes nothing.
        assert queue.reserve_sequences(0) == 5
        queue.push(0.5, lambda: None)
        reference.push(0.5, lambda: None)

        def drain(q):
            order = []
            while True:
                entry = q.peek_entry()
                if entry is None:
                    return order
                if entry[2].__class__ is _Block:
                    q.pop_block()
                else:
                    q.pop_entry()
                order.append(entry[:2])

        # The block holds sequences 1..3 and pops as one entry under its
        # first number, between the same neighbours as the singles.
        assert first == 1
        assert drain(queue) == [(0.5, 5), (1.0, 1), (1.0, 4), (2.0, 0)]
        assert drain(reference) == [
            (0.5, 5), (1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4), (2.0, 0)
        ]

    def test_len_counts_block_sizes(self):
        queue = EventQueue()
        queue.push_item(1.0, "single")
        queue.push_block(2.0, queue.reserve_sequences(4), _Block(4))
        assert len(queue) == 5
        assert queue.pop_entry()[2] == "single"
        assert len(queue) == 4
        queue.pop_block()
        assert len(queue) == 0
        assert not queue

    def test_depth_tracking_counts_blocks(self):
        queue = EventQueue()
        queue.enable_depth_tracking()
        queue.push_item(1.0, "single")
        queue.push_block(2.0, queue.reserve_sequences(4), _Block(4))
        assert queue.peak_live == 5
