"""Clocks, speed normalisation and the summary statistics every metric uses.

This box's speed drifts by tens of percent between seconds (shared
cores), and the drift moves wall time and CPU time together, so it is
machine speed, not scheduling. Every timed window is therefore bracketed
by a :class:`Calibrator`, a fixed piece of work, and scaled to the speed
at which that work takes its reference time. Where the hypervisor says
it took a core away during a window (steal ticks), the window is set
aside: that is an outage, not a speed.
"""

from __future__ import annotations

import os
import socket
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import AbstractSet, Callable, List, Sequence, Tuple

import numpy as np

#: seconds each kind of calibration takes on the machine all timed
#: metrics are scaled to. Committed constants — deriving them at run
#: time would make two runs incomparable.
CALIB_REF_S = {"interp": 0.034, "array": 0.012}

#: passes of the work per reading (the reading is their median). One
#: ``array`` pass in twenty reads 10 % high and one in 300 read 9x: page
#: faults of its 8 MB temporaries; a slow ``interp`` pass has slow
#: neighbours (300 and 240 back-to-back passes), so one pass is a reading.
CALIB_PASSES = {"interp": 1, "array": 3}

#: with fewer undisturbed windows than this, the least disturbed ones are added
MIN_STEADY = 5

#: percentiles the tail rule chooses from, each with the whole number n
#: such that one sample in n lies beyond it (exact, where 100 - p is not)
PERCENTILES = ((50.0, 2), (90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000), (99.99, 10_000))


class Calibrator:
    """Fixed work, run on one core, whose duration says how fast that core is now.

    Two kinds, because two resources set the speed of the workloads and
    this box's neighbours take them independently (measured over twelve
    10 s blocks per workload: the residual spread after scaling was
    3-6 % with the matching kind, 7-12 % with the other):

    * ``interp`` — a dict/int loop in the interpreter, then round trips
      over a loopback TCP connection: what the limiter, the servers, the
      load driver and the event engine are made of;
    * ``array`` — NumPy gather, mask, bincount and cumsum over arrays
      that do not fit the cache: what the vectorized backend is made of.

    Calling it returns how many times slower than the reference the core
    ran (1.0 = reference speed). ``serve_paced`` scales its latency by a
    third, ``workloads.PacedCalibrator`` (its own request stream against
    the null server), which needs a live process and so lives there.
    """

    def __init__(self, kind: str, core: int):
        self.core = core
        self.ref_s = CALIB_REF_S[kind]
        self.passes = CALIB_PASSES[kind]
        self._sockets: List[socket.socket] = []
        if kind == "array":
            self._index = (np.arange(1_000_000, dtype=np.int64) * 7919) % 1_000_000
            self._values = self._index.astype(float)
            self._work = self._array
        else:
            with socket.create_server(("127.0.0.1", 0)) as listener:
                near = socket.create_connection(listener.getsockname())
                far, _ = listener.accept()
            self._sockets = [near, far]
            for end in self._sockets:
                end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._work = self._interp

    def _interp(self) -> None:
        table: dict = {}
        acc = 0
        for i in range(120_000):
            slot = i & 1023
            acc += table.get(slot, 0) + 1
            table[slot] = acc & 0xFFFF
        near, far = self._sockets
        message = b"x" * 512
        for _ in range(3000):
            near.send(message)
            far.recv(4096)

    def _array(self) -> None:
        gathered = self._values[self._index]
        chosen = gathered > 500_000.0
        np.bincount(self._index[chosen] & 1023, minlength=1024)
        np.cumsum(gathered)

    def _timed(self) -> float:
        started = perf_counter()
        self._work()
        return perf_counter() - started

    def __call__(self) -> float:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.core})
        try:
            return statistics.median(self._timed() for _ in range(self.passes)) / self.ref_s
        finally:
            os.sched_setaffinity(0, previous)

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        for end in self._sockets:
            end.close()


def stolen_ticks(cores: AbstractSet[int]) -> int:
    """Clock ticks so far in which the hypervisor ran something else on ``cores``.

    The ``steal`` column of ``/proc/stat``; always 0 on bare metal.
    """
    total = 0
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cores:
                total += int(fields[7])
    return total


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def top_percentile(count: int) -> float:
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    best = PERCENTILES[0][0]
    for pct, one_in in PERCENTILES:
        if count >= 10 * one_in:
            best = pct
    return best


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not len(sorted_values):
        raise ValueError("no samples")
    rank = min(len(sorted_values) - 1, int(len(sorted_values) * pct / 100.0))
    return float(sorted_values[rank])


@dataclass
class Window:
    """One timed window between two calibrations.

    ``latency_ms`` is the window's own latency figure (what the workload
    calls one operation's latency), ``slow_before`` / ``slow_after`` are
    the calibrator's readings on either side, ``stolen`` the steal ticks
    from the start of the first reading to the end of the second.
    """

    ops: float
    elapsed: float
    latency_ms: float
    slow_before: float
    slow_after: float
    stolen: int = 0

    @property
    def speed(self) -> float:
        """How much slower than the reference the machine ran (1.0 = reference)."""
        return (self.slow_before + self.slow_after) / 2.0

    @property
    def raw_rate(self) -> float:
        return self.ops / self.elapsed

    @property
    def rate(self) -> float:
        """Operations per second at reference speed."""
        return self.raw_rate * self.speed

    @property
    def latency(self) -> float:
        """``latency_ms`` at reference speed."""
        return self.latency_ms / self.speed


@dataclass
class Windows:
    """The measured phase of a workload: calibrated windows until time is up."""

    calib: Callable[[], float]
    stolen: Callable[[], int] = lambda: 0
    items: List[Window] = field(default_factory=list)

    def measure(
        self, seconds: float, run_window: Callable[[], Tuple[float, float, float]]
    ) -> "Windows":
        """Fill ``seconds`` with ``run_window() -> (ops, elapsed, latency_ms)`` calls.

        Neighbouring windows share the calibration between them, so a
        phase of n windows costs n + 1 calibrations.
        """
        deadline = perf_counter() + seconds
        mark = self.stolen()
        before = self.calib()
        while True:
            ops, elapsed, latency_ms = run_window()
            next_mark = self.stolen()
            after = self.calib()
            taken = self.stolen() - mark
            self.items.append(Window(ops, elapsed, latency_ms, before, after, taken))
            mark, before = next_mark, after
            if perf_counter() >= deadline:
                return self

    def steady(self) -> List[Window]:
        """The windows the metrics are taken over.

        Those during which the hypervisor took no core away; where that
        leaves fewer than :data:`MIN_STEADY`, that many with the least
        steal. (In one nine-minute storm four ``serve_hot`` runs in a
        row had steal on 90-100 % of their windows; over all windows
        they read 175-250k/s, against 435k/s before and after.)
        """
        clean = sum(1 for window in self.items if not window.stolen)
        by_steal = sorted(self.items, key=lambda window: window.stolen)
        return by_steal[: max(clean, MIN_STEADY)]

    @property
    def ops(self) -> float:
        return sum(window.ops for window in self.items)

    @property
    def elapsed(self) -> float:
        return sum(window.elapsed for window in self.items)
