"""The asyncio load generator (``repro loadgen``).

Replays an *open-loop* arrival schedule (built by
:mod:`repro.serve.arrivals` from a declarative
:class:`~repro.scenarios.ArrivalSpec`) against a live admission server:
request send times are fixed before the run, so offered load does not
slow down when the server pushes back — the regime that distinguishes
admission control from polite clients.

Requests fan out round-robin over ``connections`` persistent TCP
connections and ``keys`` distinct account keys. Each connection
pipelines: a writer coroutine flushes every request that is due (one
``write`` per due batch), while a reader coroutine matches responses
FIFO to their send deadlines — the wire protocol
(:mod:`repro.serve.wire`) answers strictly in order, so no per-request
ids are needed. Latency is measured from the *scheduled* arrival time
to the response, so scheduler lag and server backpressure both count,
as they would for a real client.

``pipeline`` optionally caps in-flight requests per connection
(0 = unbounded): a run stays open-loop in its send *schedule* while
bounding how deep any one connection's response queue can grow.

The reader exploits the fixed 17-byte ``DECISION`` frame: a pipelined
ACQUIRE-only stream is a homogeneous array of records, so each socket
read is parsed with **one** :func:`numpy.frombuffer` over a packed
structured dtype (:data:`repro.serve.wire.DECISION_DTYPE`) instead of a
Python loop — the client-side half of the zero-copy wire path. Any
non-DECISION frame (stats, error) drops the connection back to the
generic frame-by-frame parser.

Results aggregate into :class:`repro.metrics.latency.LatencyRecorder`:
admitted/rejected counts, p50/p95/p99 latency, and an
admissions-per-second time series that makes the §3.4 ceiling visible
through a flash-crowd burst.
"""

from __future__ import annotations

import asyncio
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.metrics.latency import LatencyRecorder
from repro.scenarios import ArrivalSpec
from repro.serve import wire
from repro.serve.arrivals import arrival_times
from repro.sim.randomness import RandomStreams


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


async def fetch_stats(host: str, port: int) -> Dict[str, object]:
    """Fetch one STATS document from a server.

    Works against a single-process server and the cluster router alike
    (the router answers with the aggregated cluster document). Raises
    ``ValueError`` on a protocol mismatch and propagates ``OSError``
    when the server is unreachable.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(wire.MAGIC + wire.encode_command_binary(wire.OP_STATS))
        ack = await reader.readexactly(len(wire.MAGIC))
        if ack != wire.MAGIC:
            raise ValueError("server did not echo the binary hello")
        header = await reader.readexactly(2)
        length = header[0] | (header[1] << 8)
        payload = await reader.readexactly(length)
        status, value = wire.decode_response_binary(payload)
        if status != wire.STATUS_STATS:
            raise ValueError(f"expected a STATS response, got status {status}")
        return json.loads(value)
    except asyncio.IncompleteReadError as error:
        raise ValueError("server closed mid-response") from error
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


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
    reader, writer = await asyncio.open_connection(host, port)
    loop = asyncio.get_running_loop()
    total = len(schedule)
    # The server answers strictly in order and the writer sends
    # in schedule order, so response N belongs to send deadline N: a
    # cursor into the due-times array replaces per-request bookkeeping.
    dues = np.fromiter(
        (due for due, _ in schedule), dtype=np.float64, count=total
    )
    due_list = dues.tolist()
    sent = 0
    completed = 0
    consumer_done = asyncio.Event()
    #: set by the reader whenever responses complete (or it exits), so
    #: a pipeline-capped writer can wait for in-flight slots to free up
    progress = asyncio.Event()

    async def read_responses() -> None:
        nonlocal completed
        buffer = bytearray()
        stride = wire.DECISION_FRAME_SIZE
        body_length = stride - 2  # u16 length prefix excludes itself
        decode = wire.decode_response_binary
        generic = False
        try:
            while True:
                chunk = await reader.read(2**17)
                if not chunk:
                    return
                if buffer:
                    buffer += chunk
                    data = buffer
                else:
                    data = chunk  # parse straight out of the socket read
                if not generic:
                    usable = len(data) - len(data) % stride
                    if not usable:
                        if data is not buffer:
                            buffer += data
                        continue
                    view = memoryview(data)[:usable]
                    frames = np.frombuffer(view, dtype=wire.DECISION_DTYPE)
                    homogeneous = bool(
                        (frames["status"] == wire.STATUS_DECISION).all()
                    ) and bool((frames["len"] == body_length).all())
                    if homogeneous:
                        count = usable // stride
                        admitted = frames["admitted"] != 0
                        del frames
                        view.release()
                        # One timestamp for the burst: every response in
                        # it arrived in the same socket read.
                        ats = dues[completed : completed + count]
                        latencies = (loop.time() - start) - ats
                        completed += count
                        recorder.record_arrays(latencies, admitted, ats)
                        if data is buffer:
                            del buffer[:usable]
                        elif usable < len(data):
                            buffer += data[usable:]
                        progress.set()
                        if completed >= total and consumer_done.is_set():
                            return
                        continue
                    # A stats/error/short frame broke the stride: fall
                    # back to frame-by-frame parsing for good.
                    del frames
                    view.release()
                    generic = True
                    if data is not buffer:
                        buffer += data
                payloads, consumed = wire.split_frames(buffer)
                if consumed:
                    del buffer[:consumed]
                if not payloads:
                    continue
                now = loop.time()
                samples = []
                for payload in payloads:
                    due = due_list[completed]
                    completed += 1
                    admitted = False
                    try:
                        status, value = decode(payload)
                        if status == wire.STATUS_DECISION:
                            admitted = value.admitted
                        else:
                            report.errors += 1
                    except ValueError:
                        report.errors += 1
                    samples.append((now - (start + due), admitted, due))
                recorder.record_many(samples)
                progress.set()
                if completed >= total and consumer_done.is_set():
                    return
        finally:
            progress.set()

    writer.write(wire.MAGIC)
    await writer.drain()
    try:
        ack = await reader.readexactly(len(wire.MAGIC))
    except asyncio.IncompleteReadError:
        ack = b""
    if ack != wire.MAGIC:
        report.errors += total
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        return
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
            stop = sent + pipeline - (sent - completed) if pipeline else total
            if stop > total:
                stop = total
            cutoff = loop.time() - start
            index = bisect_right(due_list, cutoff, sent, stop)
            if index > sent:
                writer.write(stream[offset_list[sent] : offset_list[index]])
                sent = index
                await writer.drain()
        consumer_done.set()
        if completed < sent:
            await reader_task  # drains until every response arrived, or EOF
        else:
            reader_task.cancel()
    except OSError:
        # The server went away mid-run: keep everything already
        # measured and report the unsent remainder as errors.
        report.errors += total - sent
    finally:
        # Requests written but never answered (server EOF mid-batch).
        report.errors += sent - completed
        if not reader_task.done():
            reader_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


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
