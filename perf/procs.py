"""Launching, accounting and killing the processes under test.

Every child starts in its own session (hence its own process group), so
one ``killpg`` reaches a router *and* the workers it spawned; the caller
holds each child in a ``with`` block, so it dies on every exit path —
a failed check and ``KeyboardInterrupt`` included.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep
from typing import AbstractSet, List, NamedTuple, Optional, Sequence

from perf import CHILD_ENV, ROOT

_TICKS = os.sysconf("SC_CLK_TCK")

#: ``repro serve`` (server or cluster router) announces its bound port
ANNOUNCE = re.compile(r"on [0-9.]+:(\d+)")


class Cores(NamedTuple):
    """Which CPUs the load driver and the system under test run on.

    Kept apart so that the driver never takes cycles from the server it
    measures, and so that calibration can run on the very core whose
    speed limits the workload: on this shared box the two cores slow
    down independently, and a calibration on the wrong one left the
    normalised rates of ten runs 11 % apart (on the right one, 2 %).
    """

    driver: int
    sut: AbstractSet[int]

    @classmethod
    def split(cls) -> "Cores":
        """First allowed CPU for the driver, the rest (or the same one) for the SUT."""
        allowed = sorted(os.sched_getaffinity(0))
        return cls(allowed[0], frozenset(allowed[1:] or allowed))

    @property
    def bench(self) -> int:
        """The SUT core that calibration runs on."""
        return min(self.sut)


class Child:
    """One launched process, ready once it printed a line matching ``ready``.

    ``launch_s`` is the time from ``Popen`` to that line; ``match`` is
    the regex match (the announced port, a set-up probe's ``ready``).
    """

    def __init__(
        self,
        argv: Sequence[str],
        ready: "re.Pattern[str]",
        cores: AbstractSet[int],
        timeout: float = 60.0,
    ):
        started = perf_counter()
        self.process = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=CHILD_ENV,
            start_new_session=True,
            # This process has no threads, so running Python between
            # fork and exec is safe; workers the child spawns inherit it.
            preexec_fn=lambda: os.sched_setaffinity(0, cores),
        )
        try:
            self.match = self._await(ready, started + timeout)
        except BaseException:
            self.stop()
            raise
        self.launch_s = perf_counter() - started

    def _await(self, ready: "re.Pattern[str]", deadline: float) -> "re.Match[str]":
        stdout = self.process.stdout
        assert stdout is not None
        seen: List[str] = []
        pending = b""
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise RuntimeError(f"child never became ready; said: {seen}")
            chunk = os.read(stdout.fileno(), 65536)
            if not chunk:
                raise RuntimeError(f"child exited before it was ready; said: {seen}")
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for raw in lines:
                line = raw.decode("utf-8", "replace")
                seen.append(line)
                match = ready.search(line)
                if match:
                    return match

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Kill the whole process group and wait until every member ended."""
        group = [self.pid] + descendants(self.pid)
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.pid, sig)
            except ProcessLookupError:
                break
            deadline = perf_counter() + 5.0
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                continue
            # Router-spawned workers are not our children, so they
            # cannot be waited for, only watched until they are gone.
            while any(_running(pid) for pid in group[1:]) and perf_counter() < deadline:
                sleep(0.01)
            if not any(_running(pid) for pid in group[1:]):
                break
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def python_child(
    module_args: Sequence[str], ready: "re.Pattern[str]", cores: AbstractSet[int]
) -> Child:
    """Launch ``python -u -m <module_args...>`` from the checkout root on ``cores``."""
    return Child([sys.executable, "-u", "-m", *module_args], ready, cores)


def _running(pid: int) -> bool:
    """Whether ``pid`` still exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, via ``/proc/<pid>/task/*/children``."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for listing in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                kids = [int(token) for token in listing.read_text().split()]
            except (OSError, ValueError):
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used (``/proc/<pid>/stat``)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may contain spaces; fields count from after ")".
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """The process's peak resident set (``VmHWM``) in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    if match is None:
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return int(match.group(1)) / 1024.0
