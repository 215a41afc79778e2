"""The asyncio load generator (``repro loadgen``).

Replays an *open-loop* arrival schedule (built by
:mod:`repro.serve.arrivals` from a declarative
:class:`~repro.scenarios.ArrivalSpec`) against a live admission server:
request send times are fixed before the run, so offered load does not
slow down when the server pushes back — the regime that distinguishes
admission control from polite clients.

Requests fan out round-robin over ``connections`` persistent
:class:`~repro.serve.connection.FramedLink` connections — the client
the cluster router reaches its workers with — and ``keys`` distinct
account keys. Each connection pipelines: a writer coroutine flushes
every request that is due (one ``write`` per due batch), while a reader
coroutine matches responses FIFO to their send deadlines — the wire
protocol (:mod:`repro.serve.wire`) answers strictly in order, so no
per-request ids are needed. Latency is measured from the *scheduled* arrival time
to the response, so scheduler lag and server backpressure both count,
as they would for a real client.

``pipeline`` optionally caps in-flight requests per connection
(0 = unbounded): a run stays open-loop in its send *schedule* while
bounding how deep any one connection's response queue can grow.

The reader exploits the fixed 17-byte ``DECISION`` frame: a pipelined
ACQUIRE-only stream is answered by a homogeneous array of records, so
each wake-up's whole records are one
:data:`~repro.serve.wire.DECISION_DTYPE` view of the link's preallocated
receive buffer (``FramedLink.decisions``), timestamped once — no
allocation per read, no Python loop per reply. A record that is not a
DECISION (an ``ERROR`` frame, a stream out of step) fails the link as it
does on a router's worker link: the connection is closed and everything
not yet answered counts in ``errors``, like a mid-run disconnect.

Results aggregate into :class:`repro.metrics.latency.LatencyRecorder`:
admitted/rejected counts, p50/p95/p99 latency, and an
admissions-per-second time series that makes the §3.4 ceiling visible
through a flash-crowd burst.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.metrics.latency import LatencyRecorder
from repro.scenarios import ArrivalSpec
from repro.serve import wire
from repro.serve.arrivals import arrival_times
from repro.serve.connection import FramedLink, HelloError, fetch_stats
from repro.sim.randomness import RandomStreams

__all__ = ["LoadgenReport", "fetch_stats", "run_loadgen"]

#: a connection's receive buffer. The reader takes whatever whole records
#: a wake-up brought, so it must fit one DECISION record; it is sized to
#: take a deep pipeline's replies (~7 700 records) in one read
_LINK_BUFFER = 2**17


@dataclass
class LoadgenReport:
    """Everything one load-generation run measured."""

    spec_label: str
    duration: float
    offered: int
    #: wall-clock seconds the run actually took (≥ duration under lag)
    elapsed: float = 0.0
    errors: int = 0
    #: per-connection in-flight cap (0 = unbounded)
    pipeline: int = 0
    summary: Dict[str, float] = field(default_factory=dict)
    #: admissions per second over the run, bucketed
    admitted_per_second: List[float] = field(default_factory=list)

    def format(self) -> str:
        """The human-readable block ``repro loadgen`` prints."""
        pipelined = f", pipeline {self.pipeline}" if self.pipeline else ""
        lines = [
            f"loadgen {self.spec_label}: offered {self.offered} requests "
            f"over {self.duration:g}s (elapsed {self.elapsed:.2f}s{pipelined})",
        ]
        summary = self.summary
        if summary:
            lines.append(
                f"  admitted {summary['admitted']:.0f} / rejected "
                f"{summary['rejected']:.0f}  (admit ratio "
                f"{summary['admit_ratio']:.1%})"
            )
            if "latency_p50_ms" in summary:
                lines.append(
                    f"  latency p50 {summary['latency_p50_ms']:.2f}ms  "
                    f"p95 {summary['latency_p95_ms']:.2f}ms  "
                    f"p99 {summary['latency_p99_ms']:.2f}ms  "
                    f"max {summary['latency_max_ms']:.2f}ms"
                )
        if self.errors:
            lines.append(f"  protocol errors: {self.errors}")
        if self.admitted_per_second:
            peak = max(self.admitted_per_second)
            mean = sum(self.admitted_per_second) / len(self.admitted_per_second)
            lines.append(f"  admitted/s: peak {peak:.0f}, mean {mean:.0f}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering (benchmarks, ``--save``)."""
        return {
            "spec": self.spec_label,
            "duration": self.duration,
            "offered": self.offered,
            "elapsed": self.elapsed,
            "errors": self.errors,
            "pipeline": self.pipeline,
            "summary": self.summary,
            "admitted_per_second": self.admitted_per_second,
        }


async def _connection_worker(
    host: str,
    port: int,
    schedule: List[tuple],
    start: float,
    recorder: LatencyRecorder,
    report: LoadgenReport,
    pipeline: int = 0,
) -> None:
    """Drive one pipelined connection through its slice of the schedule."""
    if not schedule:
        return
    total = len(schedule)
    try:
        link = await FramedLink.connect(host, port, _LINK_BUFFER)
    except HelloError:
        report.errors += total
        return
    loop = asyncio.get_running_loop()
    # The server answers strictly in order and the writer sends
    # in schedule order, so response N belongs to send deadline N: a
    # cursor into the due-times array replaces per-request bookkeeping.
    dues = np.fromiter(
        (due for due, _ in schedule), dtype=np.float64, count=total
    )
    due_list = dues.tolist()
    sent = 0
    completed = 0
    #: set by the reader whenever responses complete (or it exits), so
    #: a pipeline-capped writer can wait for in-flight slots to free up
    progress = asyncio.Event()

    async def read_responses() -> None:
        nonlocal completed
        try:
            while completed < total:
                # The server answers only what was sent, so "everything
                # still unanswered" caps the read at what is outstanding.
                records = await link.decisions(total - completed, partial=True)
                # One timestamp for the burst: every response in it
                # arrived in the same wake-up.
                now = loop.time() - start
                admitted = records["admitted"] != 0
                ats = dues[completed : completed + len(records)]
                completed += len(records)
                recorder.record_arrays(now - ats, admitted, ats)
                progress.set()
        except ConnectionError:
            link.close()  # EOF, or a record that is no DECISION: trust no more
        finally:
            progress.set()

    # Requests repeat over few keys: encode each key once up front, then
    # pre-join the whole connection's request stream into ONE contiguous
    # bytes object with per-request byte offsets. The send hot loop is
    # then a zero-copy memoryview slice per batch — no per-request join
    # work competes with the server for CPU during the measured run.
    frame_cache: Dict[str, bytes] = {}
    payloads_out = []
    for _, key in schedule:
        frame = frame_cache.get(key)
        if frame is None:
            frame = frame_cache[key] = wire.encode_request_binary(key)
        payloads_out.append(frame)
    stream = memoryview(b"".join(payloads_out))
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, payloads_out), dtype=np.int64, count=total),
        out=offsets[1:],
    )
    offset_list = offsets.tolist()
    del payloads_out
    reader_task = asyncio.create_task(read_responses())
    try:
        while sent < total:
            delay = start + due_list[sent] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            while pipeline and sent - completed >= pipeline:
                if reader_task.done():
                    raise ConnectionResetError("reader finished early")
                progress.clear()
                await progress.wait()
            # Flush everything that is due by now as one batch write
            # (bounded by the remaining pipeline room, if capped).
            stop = min(completed + pipeline, total) if pipeline else total
            cutoff = loop.time() - start
            index = bisect_right(due_list, cutoff, sent, stop)
            if index > sent:
                link.transport.write(stream[offset_list[sent] : offset_list[index]])
                sent = index
                await link.drain()
        await reader_task  # until every response arrived, or the link failed
    except OSError:
        pass  # the server went away mid-run: keep everything already measured
    finally:
        # Never sent, or written but never answered (server EOF mid-batch).
        report.errors += total - completed
        reader_task.cancel()
        link.close()


async def run_loadgen(
    host: str,
    port: int,
    spec: ArrivalSpec,
    duration: float = 5.0,
    connections: int = 4,
    keys: int = 16,
    seed: int = 1,
    key_prefix: str = "key",
    protocol: str = "binary",  # accepted only: perf/workloads.py (frozen) passes it
    pipeline: int = 0,
) -> LoadgenReport:
    """Replay ``spec`` against ``host:port`` and measure the outcome.

    Deterministic schedule for a given ``seed`` (the arrival draws come
    from the same :class:`~repro.sim.randomness.RandomStreams` discipline
    as the simulation layers); wall-clock latencies are, of course, not.
    """
    if connections < 1:
        raise ValueError(f"need at least one connection, got {connections}")
    if keys < 1:
        raise ValueError(f"need at least one key, got {keys}")
    if protocol != "binary":
        raise ValueError(f"the only wire protocol is 'binary', got {protocol!r}")
    if pipeline < 0:
        raise ValueError(f"pipeline depth cannot be negative, got {pipeline}")
    rng = RandomStreams(seed).stream("loadgen-arrivals")
    schedule = [
        (due, f"{key_prefix}-{index % keys}")
        for index, due in enumerate(arrival_times(spec, duration, rng))
    ]
    report = LoadgenReport(
        spec_label=spec.label(),
        duration=duration,
        offered=len(schedule),
        pipeline=pipeline,
    )
    recorder = LatencyRecorder()
    loop = asyncio.get_running_loop()
    start = loop.time()
    await asyncio.gather(
        *(
            _connection_worker(
                host,
                port,
                schedule[worker::connections],
                start,
                recorder,
                report,
                pipeline=pipeline,
            )
            for worker in range(connections)
        )
    )
    report.elapsed = loop.time() - start
    report.summary = recorder.summary()
    report.admitted_per_second = list(recorder.admitted_series().values)
    return report
