"""Event queue of the discrete-event simulator.

Events are ordered by simulated time, with a monotonically increasing
sequence number as a tie-breaker so that events scheduled earlier run earlier
when timestamps collide.  This makes simulations fully deterministic.

The queue is the hottest data structure of the whole library, so it is built
for allocation economy: heap entries are plain ``(time, sequence, item)``
tuples (one small tuple per entry instead of an order-compared dataclass),
and only :meth:`EventQueue.push` — the cancellable path used by
``Simulator.schedule`` — allocates an :class:`Event` handle.  The
simulator's message deliveries go through :meth:`EventQueue.push_item`,
which stores an arbitrary payload with no per-event handle at all; the
simulator's run loop dispatches on the payload type.  The batched engine
adds one more entry shape: :meth:`EventQueue.push_block` stores a block of
same-time deliveries under the first number of a reserved sequence range
(:meth:`EventQueue.reserve_sequences`), so one heap orders every engine's
deliveries.  Because sequence numbers are unique, tuple comparison never
reaches the third element, so payloads need not be comparable.

The queue also keeps an exact *live* count: :func:`len` reports only events
that are still going to fire.  Cancelled events are excluded immediately at
:meth:`Event.cancel` time (and lazily removed from the heap), which is what
makes ``Simulator.pending_events`` trustworthy for the "is the simulation
idle?" checks in the protocol runners.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Optional, Tuple


class Event:
    """A cancellation handle for one scheduled callback.

    Attributes:
        time: simulated time at which the event fires.
        sequence: insertion order, used as a deterministic tie-breaker.
        action: zero-argument callable executed when the event fires.
        cancelled: a cancelled event is skipped by the queue.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be silently skipped.

        Cancelling is idempotent, and cancelling an event that already fired
        (or was already cancelled) does not disturb the owning queue's live
        count.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"cancelled={self.cancelled!r})"
        )


class EventQueue:
    """A deterministic priority queue of scheduled items.

    Three write paths share one heap:

    * :meth:`push` returns an :class:`Event` handle that can be cancelled —
      this is what ``Simulator.schedule`` (protocol timers) uses;
    * :meth:`push_item` stores an opaque payload without allocating a
      handle — the simulator's delivery fast path;
    * :meth:`push_block` stores a batched-engine delivery block.

    ``len(queue)`` is the number of events that will still fire (cancelled
    entries are excluded the moment they are cancelled; a block counts as
    the deliveries it holds).
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._live = 0
        self._next_sequence = count().__next__
        #: Peak live-entry count; ``None`` until
        #: :meth:`enable_depth_tracking` opts this queue in.
        self.peak_live: Optional[int] = None

    def reserve_sequences(self, n: int) -> int:
        """Reserve ``n`` consecutive sequence numbers; return the first.

        The batched engine's delivery blocks (:meth:`push_block`) stand
        for many deliveries each.  Reserved numbers order a block's
        entries against every other entry exactly as if each had been
        pushed individually.  The C counter cannot jump, so it is
        restarted past the reserved range.
        """
        first = self._next_sequence()
        self._next_sequence = count(first + n).__next__
        return first

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at simulated ``time`` and return its handle."""
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        event = Event(time, self._next_sequence(), action, self)
        heapq.heappush(self._heap, (time, event.sequence, event))
        self._live += 1
        return event

    def push_item(self, time: float, item: Any) -> None:
        """Schedule an opaque, non-cancellable ``item`` at ``time``.

        The fast path of the simulator: one tuple on the heap, no handle.
        The caller of :meth:`pop_item_until` is responsible for knowing
        what the payload means.
        """
        if time < 0:
            raise ValueError("events cannot be scheduled at negative times")
        heapq.heappush(self._heap, (time, self._next_sequence(), item))
        self._live += 1

    def push_block(self, time: float, sequence: int, block: Any) -> None:
        """Schedule a block of ``block.size`` same-time deliveries.

        ``sequence`` is the first number of a :meth:`reserve_sequences`
        range.  The block counts ``block.size`` toward ``len(queue)``, so
        it must come off the heap through :meth:`pop_block`: the
        per-entry readers (:meth:`pop_item_until`, :meth:`pop_entry`)
        count one per entry.  Only the batched engine pushes blocks, and it
        unpacks any left queued before the event loop takes over.
        """
        heapq.heappush(self._heap, (time, sequence, block))
        self._live += block.size

    def pop_block(self) -> tuple:
        """Remove the head entry, which the caller peeked as a block."""
        entry = heapq.heappop(self._heap)
        self._live -= entry[2].size
        return entry

    def enable_depth_tracking(self) -> None:
        """Track the peak number of live entries (telemetry opt-in).

        Shadows the three push methods with counting wrappers on this
        instance, so queues without tracking — the default — pay nothing.
        The peak is exposed as :attr:`peak_live`; a block counts as its
        size.
        """
        self.peak_live = self._live
        for name in ("push", "push_item", "push_block"):
            setattr(self, name, self._tracked(getattr(EventQueue, name)))

    def _tracked(self, push: Callable[..., Any]) -> Callable[..., Any]:
        def tracked_push(*args: Any) -> Any:
            result = push(self, *args)
            if self._live > self.peak_live:
                self.peak_live = self._live
            return result

        return tracked_push

    def pop_item_until(
        self, limit: Optional[float]
    ) -> Optional[Tuple[float, Any]]:
        """Remove and return ``(time, payload)`` of the next live entry.

        For entries made by :meth:`push`, the payload is the event's
        ``action`` callable; for :meth:`push_item` entries it is the stored
        item, verbatim.  Returns ``None`` when the queue has no live entry
        at time ``<= limit`` (with ``limit=None`` meaning "no bound"), so
        the simulator's run loop needs one heap inspection per event.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            item = head[2]
            if item.__class__ is Event:
                if item.cancelled:
                    heapq.heappop(heap)
                    continue
                if limit is not None and head[0] > limit:
                    return None
                heapq.heappop(heap)
                item._queue = None
                self._live -= 1
                return head[0], item.action
            if limit is not None and head[0] > limit:
                return None
            heapq.heappop(heap)
            self._live -= 1
            return head[0], item
        return None

    def peek_entry(self) -> Optional[tuple]:
        """The next live ``(time, sequence, item)`` entry, without popping.

        ``item`` is the raw stored payload — an :class:`Event` for
        :meth:`push` entries, the block for :meth:`push_block` entries.
        Cancelled events are discarded on the way.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            item = head[2]
            if item.__class__ is Event and item.cancelled:
                heapq.heappop(heap)
                continue
            return head
        return None

    def pop_entry(self) -> Optional[tuple]:
        """Remove and return the next live ``(time, sequence, item)`` entry.

        The raw-payload counterpart of :meth:`pop_item_until` (``push``
        entries come back as their :class:`Event`, detached so a late
        :meth:`Event.cancel` cannot decrement the live count); used by the
        batched and sharded engines, which want the sequence number.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            item = entry[2]
            if item.__class__ is Event:
                if item.cancelled:
                    continue
                item._queue = None
            self._live -= 1
            return entry
        return None

    def peek_time(self) -> Optional[float]:
        """Return the time of the next pending event without removing it."""
        head = self.peek_entry()
        return None if head is None else head[0]
