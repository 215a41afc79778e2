"""Periodic processes — the ``wait(Δ)`` loop of the paper's pseudo-code.

Every algorithm in the paper (Algorithms 1–4) is a loop of the form::

    loop:
        wait(Δ)
        <do something>

:class:`PeriodicProcess` expresses that loop as a self-rescheduling event.
Two details matter for fidelity:

* **Unsynchronized rounds.** The paper's system model does not assume
  synchronized rounds, and PeerSim gives every node a random phase. We do
  the same: the first tick fires at ``phase`` (uniform in ``[0, Δ)`` by
  default) and then every ``Δ`` seconds.
* **Drift-free schedule.** Ticks fire at ``phase + k·Δ`` exactly for
  integer ``k``, so the token grant rate of exactly one per round that the
  analysis in §4.3 relies on holds regardless of callback cost.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventHandle


class PeriodicProcess:
    """A callback invoked every ``period`` virtual seconds.

    Simulations allocate one of these per node, and each reschedules an
    event every round — so the class is slotted and re-arms one reusable
    :class:`EventHandle` via :meth:`Simulator.reschedule` instead of
    allocating a fresh handle per tick.

    Parameters
    ----------
    sim:
        The simulator that owns the virtual clock.
    period:
        The round length Δ, in seconds. Must be positive.
    callback:
        Called with no arguments on every tick.
    phase:
        Offset of the tick grid from time zero. If ``None``, a uniform
        random phase in ``[0, period)`` is drawn from ``rng``.
    rng:
        Source for the random phase (required when ``phase is None``).
    """

    __slots__ = (
        "_sim",
        "period",
        "phase",
        "_callback",
        "_next_k",
        "_handle",
        "ticks_fired",
        "_running",
    )

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        phase: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if phase is None:
            if rng is None:
                raise ValueError("either an explicit phase or an rng is required")
            phase = rng.random() * period
        if not 0 <= phase < period:
            raise ValueError(f"phase must lie in [0, period), got {phase}")
        self._sim = sim
        self.period = period
        self.phase = phase
        self._callback = callback
        self._next_k = 0
        self._handle: Optional[EventHandle] = None
        self.ticks_fired = 0
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> "PeriodicProcess":
        """Begin ticking at the next point of the grid ``phase + k·period``.

        A grid point exactly at the current time counts as the next tick,
        so a process started at t=0 with phase 0 fires immediately (well,
        as the next event at t=0). Restarting a stopped process resumes on
        the same grid.
        """
        if self._running:
            raise RuntimeError("process already started")
        self._running = True
        self._next_k = max(
            self._next_k, math.ceil((self._sim.now - self.phase) / self.period)
        )
        if self._next_k < 0:
            self._next_k = 0
        self._handle = self._sim.schedule_at(self.next_tick_time(), self._fire)
        return self

    def stop(self) -> None:
        """Stop ticking. Idempotent; the process can be restarted."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._running

    def next_tick_time(self) -> float:
        """Absolute virtual time of the next tick (valid while running)."""
        return self.phase + self._next_k * self.period

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        if not self._running:
            return
        handle = self._handle
        self.ticks_fired += 1
        self._next_k += 1
        self._callback()
        # Re-arm the handle that just fired, unless the callback stopped
        # the process (no handle) or restarted it (start() armed a new one).
        if self._handle is handle:
            self._sim.reschedule(handle, self.phase + self._next_k * self.period)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeriodicProcess(period={self.period}, phase={self.phase:.3f}, "
            f"ticks={self.ticks_fired}, running={self._running})"
        )
