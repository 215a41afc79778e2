"""The discrete-event simulation engine.

:class:`Simulator` maintains a virtual clock and a binary heap of pending
events. It is the only component that advances time; every other part of
the library (timers, message transport, churn schedules, metric samplers)
schedules callbacks through it.

Design notes
------------
* Events firing at the same virtual instant run in scheduling order
  (FIFO), so runs are deterministic.
* A heap entry is the tuple ``(time, seq, handle)``; ``seq`` is unique,
  so the heap orders entries in C and never compares two handles.
* An entry is *live* iff ``not handle.cancelled and handle.seq == seq``;
  ``run``, ``step``, ``peek_time`` and ``live_pending`` all apply that
  one rule and discard dead entries as they meet them. Cancelling sets
  the flag and re-arming gives the handle a new ``seq`` (which kills an
  entry it still had queued): both O(1), neither touches the heap.
* The engine never looks at wall-clock time; a two-day scenario with
  ``Δ = 172.8 s`` simulates 172,800 virtual seconds regardless of how long
  the host takes.
* ``run(until=...)`` stops *after* processing every event at ``until`` so
  that metric samplers scheduled exactly at the horizon still fire.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.sim.events import EventHandle


class SimulationError(RuntimeError):
    """Raised on invalid use of the engine (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event scheduler with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds. Defaults to 0.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self, start_time: float = 0.0):
        self.now: float = float(start_time)
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq: int = 0
        self._stopped: bool = False
        self.processed: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args)
        heappush(self._heap, (time, seq, handle))
        return handle

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # One call per message sent: push here, not through schedule_at
        # (now + delay cannot lie in the past).
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args)
        heappush(self._heap, (time, seq, handle))
        return handle

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Move ``handle`` to ``time``, reusing its allocation.

        Periodic timers are by far the most common event source (every
        node re-arms one per round), so avoiding a fresh
        :class:`EventHandle` per tick measurably cuts allocator traffic.
        The handle takes a fresh ``seq``, so it queues behind everything
        already scheduled for ``time`` exactly as a new event would. If
        it was still queued, its old entry is dead from here on and the
        event fires once, at the new time. Rescheduling a cancelled
        handle un-cancels it; the caller must then restore
        ``fn``/``args``, which :meth:`EventHandle.cancel` cleared.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle.seq = seq
        handle.cancelled = False
        heappush(self._heap, (time, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event.

        Returns ``True`` if an event was processed, ``False`` if the heap
        held no live entry (dead ones are discarded transparently).
        """
        heap = self._heap
        while heap:
            time, seq, handle = heappop(heap)
            if handle.cancelled or handle.seq != seq:
                continue
            self.now = time
            handle.fn(*handle.args)
            self.processed += 1
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Run events until the heap drains, ``until`` passes, or ``stop()``.

        Parameters
        ----------
        until:
            Inclusive virtual-time horizon. Events scheduled exactly at
            ``until`` are processed; later events remain queued. When the
            horizon is reached (or the heap drains) the clock is advanced
            to ``until`` even if no event fired exactly there; a run cut
            short by ``max_events`` or :meth:`stop` leaves the clock at
            the last event it processed.
        max_events:
            Optional safety valve on the number of events processed in
            this call.

        Returns
        -------
        int
            The number of events processed by this call.
        """
        # This loop is the simulation's hottest code: bind everything it
        # touches to locals and keep the per-event work to one heappop,
        # one comparison against the horizon, and the callback itself.
        self._stopped = False
        heap = self._heap
        horizon = inf if until is None else until
        bounded = max_events is not None
        processed = 0
        # Only the horizon or an empty heap lets the clock jump to
        # ``until``: a cap or ``stop()`` leaves earlier events queued.
        reached = True
        while heap:
            time, seq, handle = heap[0]
            if handle.cancelled or handle.seq != seq:
                heappop(heap)
                continue
            if time > horizon:
                break
            if bounded and processed >= max_events:
                reached = False
                break
            heappop(heap)
            self.now = time
            handle.fn(*handle.args)
            processed += 1
            if self._stopped:
                reached = False
                break
        if until is not None and reached and self.now < until:
            self.now = until
        self.processed += processed
        return processed

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Upper bound on the number of queued events.

        Cancellation is lazy (see :class:`repro.sim.events.EventHandle`),
        so dead entries — cancelled, or superseded by a reschedule —
        linger in the heap until popped and this count *includes* them.
        Use :attr:`live_pending` for the exact number of events that
        will still fire.
        """
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Exact number of queued events that will still fire.

        O(pending): walks the heap and skips dead entries. Intended for
        assertions and diagnostics, not for hot loops.
        """
        return sum(not h.cancelled and h.seq == seq for _, seq, h in self._heap)

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or ``None`` if drained."""
        heap = self._heap
        while heap:
            time, seq, handle = heap[0]
            if not handle.cancelled and handle.seq == seq:
                return time
            heappop(heap)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={len(self._heap)})"
