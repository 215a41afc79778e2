"""Schedulable events for the discrete-event engine.

An event is a callback plus its arguments, tagged with a firing time and a
monotonically increasing sequence number. The sequence number breaks ties
between events scheduled for the same instant, which makes the execution
order — and therefore every simulation — fully deterministic.
"""

from __future__ import annotations

from typing import Any, Callable


class EventHandle:
    """A handle to a scheduled event, allowing cancellation.

    Cancellation is lazy: the event stays in the engine's heap but is
    skipped when popped. This keeps :meth:`cancel` O(1), which matters for
    simulations that cancel many timers (for example churn schedules).

    The engine's heap holds ``(time, seq, handle)`` tuples, so a handle
    defines no ordering; its ``seq`` names the one entry that is current.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        self.cancelled = True
        # Drop references so cancelled events do not pin application
        # objects in memory while they wait to be popped from the heap.
        self.fn = _noop
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    """Replacement callback for cancelled events."""
