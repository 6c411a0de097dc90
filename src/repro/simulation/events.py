"""Virtual clock and discrete-event queue.

The simulation advances time only when events fire; computation and message
transfers are modelled by scheduling their completion at
``now + duration``.  Events scheduled for the same instant fire in FIFO
order, which keeps runs deterministic.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Events fire in ``(time, sequence)`` order, so ties are broken by
    insertion order.  A cancelled event stays in the heap until it is
    popped or the queue compacts, and never fires.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_queue")

    def __init__(self, time: float, sequence: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        #: The queue holding this event while it waits to fire; ``None``
        #: once it has been popped (or if it was never queued).
        self._queue: Optional[EventQueue] = None

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._discard()


class EventQueue:
    """A priority queue of :class:`Event` objects.

    Heap entries are ``(time, sequence, event)`` tuples: sequences are
    unique, so ordering never reaches the event and every sift compares in
    C.  The queue counts its live entries, which makes ``len()`` O(1), and
    drops cancelled entries with one ``heapify`` once they outnumber the
    live ones.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0

    def push(self, time: float, callback: Callable[[], None]) -> Event:
        sequence = next(self._counter)
        event = Event(time, sequence, callback)
        event._queue = self
        heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` when empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def _discard(self) -> None:
        """Account for a queued event that was just cancelled."""
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        # The (time, sequence) keys are unique, so pop order does not depend
        # on the heap's layout and compaction cannot reorder anything.
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._cancelled = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class SimulationEnvironment:
    """The simulation's global virtual clock and scheduler.

    All actors (federator, clients, network) share one environment.  The
    typical usage pattern is::

        env = SimulationEnvironment()
        env.schedule(0.0, federator.start)
        env.run()

    after which ``env.now`` holds the virtual time at which the last event
    fired.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self._events_processed = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for debugging/limits)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        return self._queue.push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        return self._queue.push(time, callback)

    def step(self) -> bool:
        """Process the next pending event; ``False`` when the queue is empty.

        Equivalent to one iteration of :meth:`run` and O(log n), so callers
        that pump the simulation one event at a time (the streaming run
        handles) pay the same total cost as a single :meth:`run` call.
        """
        event = self._queue.pop()
        if event is None:
            return False
        self.now = event.time
        event.callback()
        self._events_processed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains (or a limit is reached).

        Parameters
        ----------
        until:
            Stop once the next event would fire after this virtual time.
            The clock is advanced to ``until`` in that case.
        max_events:
            Safety limit on the number of events to process.
        """
        queue = self._queue
        processed = 0
        while True:
            if until is not None:
                next_time = queue.peek_time()
                if next_time is None:
                    break
                if next_time > until:
                    self.now = until
                    break
            if max_events is not None and processed >= max_events:
                break
            if not self.step():
                break
            processed += 1

    def pending_events(self) -> int:
        """Number of events still waiting to fire (O(1))."""
        return len(self._queue)
