"""The multi-process limiter cluster (``repro serve --workers N``).

One asyncio admission server is GIL-bound: it saturates one core while
the others idle. The cluster shape fixes that without touching the
limiter: ``N`` **worker processes** each run the existing
:class:`~repro.serve.server.AdmissionServer` on a private socket, and a
front-end **router** process owns the public port, speaking the binary
wire protocol (:mod:`repro.serve.wire`) on both sides.

Key ownership
-------------
The router maps every ACQUIRE key to exactly one worker with a
:class:`~repro.serve.ring.HashRing` over
:func:`~repro.serve.ring.stable_hash` — the same seeded, restart-stable
hash the in-process shard table routes with. One owner per key means
each key's token account lives in exactly one worker's table, so the
paper's §3.4 burst bound (≤ ``⌈t/Δ⌉ + C`` admissions per key in any
window ``t``) holds cluster-wide exactly as it does in one process.

Data path
---------
Per client connection the router opens one binary connection to every
worker, so each worker answers *this client's* requests strictly FIFO.
A drained client chunk becomes one **batch**: validated ACQUIRE frames
are grouped by verbatim frame bytes (= one group per key+flags),
positions remembered, routing memoized frame-bytes → (worker,
bulk-record prefix) in a bounded dict so the per-frame hot path is one
dict hit. At the flush a group takes one of two roads, by its count
alone. A frame seen **once** is forwarded to its owner verbatim — the
copy made for the memo — and the worker's ordinary drain answers it
with a 17-byte DECISION record. A frame seen ``count`` > 1 times
collapses to one ~``5+len(key)``-byte ``ACQUIRE_BULK`` record, answered
by 20-byte ``RUN`` frames and nothing else (*Bulk admission* in
:mod:`repro.serve.wire`). A worker is sent its lone frames first, then
its bulk frames, so its reply to a batch is two fixed strides.

The reply side never works per group. A responder task reassembles
client order **per worker per batch**, reading the link's preallocated
receive buffer in place (:class:`_WorkerLink`: nothing is allocated per
wake-up). The DECISION stride is scattered to its request positions as
opaque records; the RUN stride is cut where its records' decision
counts add up to what the batch owes that worker for repeats, expanded
in one columnar pass (:func:`~repro.serve.wire.expand_runs`) and scattered
the same way.
What a link received beyond that — the next batch's replies, a STATS
document — stays in its buffer for the next reader.

Order is kept per verbatim frame. Across frames — two keys, or one key
under both flag values — a batch is one instant: a worker decides its
lone frames, then its repeats group by group, however they interleaved.
Replies return in request order; §3.4 is per key over time, so it holds.

``STATS`` is a flush barrier: the router forwards it to every live
worker on the same connections (preserving FIFO alignment), sums the
per-worker counters and answers one aggregated document with cluster
fields (``workers``, ``remaps``, router ``connections``) added.
``PING`` is answered locally. The client-facing receive buffer, hello
check and shutdown drain are the worker server's own
(:mod:`repro.serve.connection`); the hello is acked only once this
connection's worker links are up.

Failure remap
-------------
Worker death is detected two ways: a supervisor polls the child
processes, and any failed read on a worker link reports the worker
immediately. Either path removes the member from the ring — which
remaps *only that worker's arcs* (~``1/W`` of the key space) and never
moves a key between survivors — bumps the ``remaps`` counter and drops
the route memo. Requests already in flight to the dead worker are
answered with synthesized REJECT frames (clients see backpressure, not
a protocol error); remapped keys start fresh accounts on their new
owner, the same contract as LRU eviction. Run workers with
``--cold-start`` to keep the burst bound airtight across a remap (a
fresh account then starts empty instead of full).
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.serve import wire
from repro.serve.connection import (
    _RECV_BUFFER,
    FramedConnection,
    FramedLink,
    FramedListener,
    HelloError,
    fetch_stats,
)
from repro.serve.limiter import Decision
from repro.serve.ring import HashRing

#: route memo budget (frame bytes -> (worker, bulk-record prefix)),
#: dropped whole when full or on any ring change
_ROUTE_CACHE_MAX = 65536

#: client-side backpressure: pause reading above, resume below
_PAUSE_OUTSTANDING = 32768
_RESUME_OUTSTANDING = 8192

#: a worker link's receive buffer: a reader waits for one batch's records
#: contiguously, so it fits a client chunk of one-byte-key ACQUIRE frames
#: (5 bytes each), every one answered by its own RUN, plus a STATS frame
_LINK_BUFFER = (_RECV_BUFFER // 5) * wire.RUN_FRAME_SIZE + wire.MAX_FRAME + 2

#: the constant head of every RUN frame: u16 length, status
_RUN_HEAD = struct.pack("<HB", wire.RUN_FRAME_SIZE - 2, wire.STATUS_RUN)

_U16 = struct.Struct("<H")
_BULK_OP = bytes((wire.OP_ACQUIRE_BULK,))

#: the reject record synthesized for requests lost to a dead worker
_SYNTH_REJECT = np.frombuffer(
    wire.encode_decision_binary(Decision(False, "", "exhausted", 0, 0.0)),
    dtype=wire.DECISION_RECORD,
)[0]

#: scrapes the port from a worker's (or the router's) announce line
_ANNOUNCE = re.compile(r"on [0-9.]+:(\d+)")


def _pack_bulk_frames(records: List[bytes]) -> bytes:
    """Join bulk group records into ``ACQUIRE_BULK`` frames.

    Records are packed greedily into as few frames as fit under
    :data:`wire.MAX_FRAME`; a validated record is at most ~1 KiB
    (``5 + len(key bytes)``), so any record fits some frame.
    """
    frames: List[bytes] = []
    chunk: List[bytes] = []
    size = 1  # the opcode byte
    for record in records:
        if size + len(record) > wire.MAX_FRAME and chunk:
            frames.append(_U16.pack(size) + _BULK_OP + b"".join(chunk))
            chunk = []
            size = 1
        chunk.append(record)
        size += len(record)
    frames.append(_U16.pack(size) + _BULK_OP + b"".join(chunk))
    return b"".join(frames)


class _WorkerLink(FramedLink):
    """One client connection's private link to one worker.

    Each reader views what it is owed at ``_start``, steps past it and
    leaves the rest for the next one; a returned view is good until the
    caller's next ``await``. No reader waits for more than
    :data:`_LINK_BUFFER` contiguous bytes, so a full buffer (read side
    held) already holds whatever is awaited.
    """

    def __init__(self) -> None:
        super().__init__(_LINK_BUFFER)
        self.dead = False

    async def runs(self, owed: int) -> np.ndarray:
        """The RUN records that answer the next ``owed`` decisions.

        The cut is the record where the running total of
        ``admits + rejects`` equals ``owed``; every RUN answers at least
        one decision, so it lies within the first ``owed`` records
        however much of later batches has already arrived. Anything
        else up to there — another status or length, a total that steps
        over ``owed`` or never reaches it — raises
        :class:`ConnectionError`: the stream can no longer be trusted
        to line up with what the router asked.
        """
        size = wire.RUN_FRAME_SIZE
        status = wire.STATUS_RUN
        while True:
            start = self._start
            whole = min((self._end - start) // size, owed)
            if whole:
                records = np.frombuffer(self._buffer, wire.RUN_DTYPE, whole, start)
                counts = records["admits"].astype(np.intp) + records["rejects"]
                covered = counts.cumsum()
                cut = int(covered.searchsorted(owed)) + 1
                records = records[:cut]
                if ((records["len"] != size - 2) | (records["status"] != status)).any():
                    raise ConnectionError("worker answered a bulk group without a RUN")
                if cut <= whole:
                    if covered[cut - 1] != owed:
                        raise ConnectionError("RUN frames overshoot the batch")
                    self._consume(cut * size)
                    return records
                if whole == owed:
                    raise ConnectionError("RUN frames fall short of the batch")
            await self._fill(start + whole * size, _RUN_HEAD)


class _RouterConnection(FramedConnection):
    """One client connection through the router.

    The drain *routes* frames instead of deciding them, and a responder
    task writes the reordered replies.
    """

    def __init__(self, router: "ClusterRouter"):
        super().__init__(router)
        self.router = router
        #: worker name -> this connection's link (built by _setup)
        self._links: Dict[str, _WorkerLink] = {}
        self._queue: "asyncio.Queue[tuple]" = asyncio.Queue()
        #: reply frames owed to the client and not yet written
        self._outstanding = 0
        self._setup_task: Optional[asyncio.Task] = None
        self._responder: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        for task in (self._setup_task, self._responder):
            if task is not None and not task.done():
                task.cancel()
        self._close_links()

    def _close_links(self) -> None:
        for link in self._links.values():
            link.close()
        self._links.clear()

    def idle(self) -> bool:
        """Nothing queued behind a worker gather, nothing unflushed."""
        return not self._outstanding and super().idle()

    def hello_received(self) -> None:
        """Bring up this connection's worker links first, then ack.

        A client that waits for the echo never races the fan-out setup,
        and one that does not wait finds the read side held until then.
        """
        self._setup_task = asyncio.get_running_loop().create_task(self._setup())

    async def _setup(self) -> None:
        """Open this connection's private link to every live worker."""
        for name, (host, port) in list(self.router._workers.items()):
            try:
                self._links[name] = await _WorkerLink.connect(host, port)
            except (HelloError, OSError):
                self.router.worker_failed(name)
        if self.transport is None:  # client left during setup
            self._close_links()
            return
        self._responder = asyncio.get_running_loop().create_task(self._respond())
        self.begin()  # hello ack, then the frames that arrived meanwhile

    # ------------------------------------------------------------------
    def _route_frame(self, frame: bytes) -> Optional[Tuple[str, bytes]]:
        """Validate and route one ACQUIRE frame (the route-memo miss path).

        The memo is keyed by the *whole verbatim frame* — one bytes
        copy per frame serves dedup, routing and bulk encoding. The
        cached entry is ``(worker, record_prefix)`` where the prefix is
        the frame's ready-made bulk group record minus the trailing
        count (distinct flag bytes for one key cost one extra memo
        entry each; only the key bytes feed the ring hash). Returns
        ``None`` — uncached — when every worker is gone.
        """
        raw = frame[4:]
        key = raw.decode("utf-8", "replace")
        if not key:
            raise ValueError("ACQUIRE needs a key")
        if len(key) > wire.MAX_KEY_LENGTH:
            raise ValueError(f"key longer than {wire.MAX_KEY_LENGTH}")
        name = self.router._route(key)
        if name is None:
            return None
        entry = (
            name,
            wire.BULK_GROUP_HEAD.pack(len(raw), frame[3]) + raw,
        )
        cache = self.router._route_cache
        if len(cache) >= _ROUTE_CACHE_MAX:
            cache.clear()
        cache[frame] = entry
        return entry

    def drain(self) -> None:
        """Route every complete frame in the buffer (the request hot loop).

        Consecutive validated ACQUIRE frames form one batch, grouped by
        verbatim frame bytes (= by key+flags, preserving per-key order);
        a flush turns the groups into per-worker ``ACQUIRE_BULK``
        frames and enqueues the scatter plan for the responder.
        ``STATS``/``PING``/malformed frames are batch barriers,
        enqueued in order behind the batches.
        """
        assert self.transport is not None
        buffer = self._buffer
        view = self._view
        start = self._start
        end = self._end
        links = self._links
        router = self.router
        route = router._route_cache
        queue_put = self._queue.put_nowait
        #: verbatim ACQUIRE frame -> this batch's positions, in order
        groups: Dict[bytes, List[int]] = {}
        position = 0
        oversized = False
        acquire_op = wire.OP_ACQUIRE
        max_frame = wire.MAX_FRAME
        pack_count = wire.BULK_GROUP_COUNT.pack

        def owe(item: tuple) -> None:
            # one reply frame outside a batch; callers flush() first
            self._outstanding += 1
            queue_put(item)

        def flush() -> None:
            nonlocal groups, position
            if not position:
                return
            #: worker name -> (lone frames, their positions, bulk records
            #: of the repeated ones, their positions flat)
            pending: Dict[str, Tuple[list, list, list, list]] = {}
            orphans: List[int] = []
            for frame, positions in groups.items():
                entry = route.get(frame)
                if entry is None:
                    # the ring changed underneath this batch (a remap
                    # drops the whole memo): re-route to a survivor
                    try:
                        entry = self._route_frame(frame)
                    except ValueError:  # pragma: no cover - validated above
                        entry = None
                if entry is None:
                    # every worker is gone; the responder synthesizes
                    orphans.extend(positions)
                    continue
                name, prefix = entry
                bucket = pending.get(name)
                if bucket is None:
                    pending[name] = bucket = ([], [], [], [])
                if len(positions) == 1:
                    bucket[0].append(frame)
                    bucket[1].append(positions[0])
                else:
                    bucket[2].append(prefix + pack_count(len(positions)))
                    bucket[3].extend(positions)
            plan: List[Tuple[Optional[str], np.ndarray, bool]] = []
            for name, (lone, singles, records, repeats) in pending.items():
                link = links.get(name)
                if link is not None and not link.dead:
                    if records:
                        lone.append(_pack_bulk_frames(records))
                    link.transport.write(b"".join(lone))
                if singles:
                    plan.append((name, np.array(singles, dtype=np.intp), True))
                if repeats:
                    plan.append((name, np.array(repeats, dtype=np.intp), False))
                router.forwarded += len(singles)
            if orphans:
                plan.append((None, np.array(orphans, dtype=np.intp), False))
            router.groups += len(groups)
            router.routed += position
            self._outstanding += position
            queue_put(("B", plan, position))
            groups = {}
            position = 0

        while end - start >= 2:
            length = buffer[start] | (buffer[start + 1] << 8)
            if length > max_frame:
                oversized = True
                break
            frame_end = start + 2 + length
            if frame_end > end:
                break
            if length >= 3 and buffer[start + 2] == acquire_op:
                frame = bytes(view[start:frame_end])
                start = frame_end
                group = groups.get(frame)
                if group is not None:
                    group.append(position)
                    position += 1
                    continue
                if frame not in route:
                    try:
                        self._route_frame(frame)
                    except ValueError as error:
                        flush()
                        owe(("E", str(error).encode(), False))
                        continue
                groups[frame] = [position]
                position += 1
                continue
            payload = view[start + 2 : frame_end]
            start = frame_end
            try:
                command, _key, _useful = wire.parse_request_binary(payload)
            except ValueError as error:
                flush()
                owe(("E", str(error).encode(), False))
                continue
            if command == "S":
                flush()
                # Written synchronously, in parse order, so each worker
                # link's FIFO stays aligned with the batch queue.
                stats_frame = wire.encode_command_binary(wire.OP_STATS)
                names = []
                for name, link in links.items():
                    if not link.dead:
                        link.transport.write(stats_frame)
                        names.append(name)
                owe(("S", tuple(names)))
            else:  # "P" (an ACQUIRE short enough to miss the fast path
                # is malformed and raised above)
                flush()
                owe(("P",))
        flush()
        self._start = start
        if oversized:
            owe(("E", b"frame exceeds %d bytes" % wire.MAX_FRAME, True))
            self.hold("closing")  # cannot resync; dying anyway
            return
        if self._outstanding >= _PAUSE_OUTSTANDING:
            self.hold("outstanding")

    # ------------------------------------------------------------------
    async def _respond(self) -> None:
        """Reassemble worker replies into client order (the response loop)."""
        get = self._queue.get
        try:
            while True:
                item = await get()
                transport = self.transport
                if transport is None:
                    return
                kind = item[0]
                owed = 1
                if kind == "B":
                    owed = item[2]
                    transport.write(await self._gather_batch(item[1], owed))
                elif kind == "S":
                    document = await self._aggregate_stats(item[1])
                    transport.write(
                        wire.encode_status_binary(wire.STATUS_STATS, document)
                    )
                elif kind == "P":
                    transport.write(wire.encode_status_binary(wire.STATUS_PONG))
                else:  # "E": error frame; fatal ones close the connection
                    transport.write(
                        wire.encode_status_binary(wire.STATUS_ERROR, item[1])
                    )
                    if item[2]:
                        transport.close()
                        return
                self._outstanding -= owed
                if self._outstanding <= _RESUME_OUTSTANDING:
                    self.release("outstanding")
        except (ConnectionError, OSError):  # pragma: no cover - client race
            if self.transport is not None:
                self.transport.close()

    async def _gather_batch(
        self, plan: List[Tuple[Optional[str], np.ndarray, bool]], total: int
    ) -> bytes:
        """Collect one batch's worker replies, scattered to client order.

        ``plan`` lists, per worker and stride (DECISION records for its
        lone frames, then RUNs for its bulk records), the request
        positions answered, in the order asked. A read failure or
        protocol surprise marks the worker lost and what it still owes
        the batch becomes synthesized REJECT frames, keeping the
        client's stream complete and ordered.
        """
        merged = np.empty(total, dtype=wire.DECISION_RECORD)
        for name, positions, lone in plan:
            link = self._links.get(name) if name is not None else None
            frames = _SYNTH_REJECT
            if link is not None and not link.dead:
                try:
                    if lone:
                        records = await link.decisions(len(positions))
                        frames = records.view(wire.DECISION_RECORD)
                    else:
                        runs = await link.runs(len(positions))
                        frames = wire.expand_runs(runs).view(wire.DECISION_RECORD)
                except (ConnectionError, OSError):
                    self._worker_lost(name, link)
            merged[positions] = frames  # a view of the link: before the next await
        return merged.tobytes()

    def _worker_lost(self, name: str, link: _WorkerLink) -> None:
        """Mark a link dead and report the worker to the ring."""
        link.dead = True
        link.close()
        self.router.worker_failed(name)

    async def _aggregate_stats(self, names: Tuple[str, ...]) -> bytes:
        """Sum the forwarded workers' stats documents into one reply."""
        totals = {
            "admitted": 0,
            "rejected": 0,
            "keys": 0,
            "evictions": 0,
            "grouped": 0,
            "worker_connections": 0,
        }
        meta: Dict[str, object] = {}
        for name in names:
            link = self._links.get(name)
            if link is None or link.dead:
                continue
            try:
                payload = await link.frame()
            except (ConnectionError, OSError):
                self._worker_lost(name, link)
                continue
            if not payload or payload[0] != wire.STATUS_STATS:
                continue  # defensive; a worker only ever answers STATS here
            document = json.loads(payload[1:])
            for field in ("admitted", "rejected", "keys", "evictions", "grouped"):
                totals[field] += int(document.get(field, 0))
            totals["worker_connections"] += int(document.get("connections", 0))
            meta.setdefault("strategy", document.get("strategy"))
            meta.setdefault("period", document.get("period"))
        router = self.router
        document = dict(meta)
        document.update(totals)
        document["workers"] = len(router._workers)
        document["remaps"] = router.remaps
        document["connections"] = router.connections
        document["groups"] = router.groups
        document["routed"] = router.routed
        document["forwarded"] = router.forwarded
        return json.dumps(document, sort_keys=True).encode()


class ClusterRouter(FramedListener):
    """The front-end router: public binary port over a worker ring.

    Parameters
    ----------
    workers:
        ``name -> (host, port)`` of the live worker servers.
    host, port:
        Public bind address; port 0 picks a free port (read it back
        from :attr:`port` after :meth:`start`).
    replicas, seed:
        Ring geometry — see :class:`~repro.serve.ring.HashRing`.
    """

    connection_class = _RouterConnection

    def __init__(
        self,
        workers: Mapping[str, Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 96,
        seed: int = 0,
    ):
        super().__init__(host, port)
        self._workers: Dict[str, Tuple[str, int]] = dict(workers)
        self._ring = HashRing(self._workers, replicas=replicas, seed=seed)
        self._route_cache: Dict[bytes, Tuple[str, bytes]] = {}
        #: ring membership changes from worker failures so far
        self.remaps = 0
        #: groups formed, the decisions they asked for (their ratio is
        #: the coalescing factor) and how many of those travelled as
        #: verbatim ACQUIRE frames, over every flushed batch
        self.groups = 0
        self.routed = 0
        self.forwarded = 0

    # ------------------------------------------------------------------
    @property
    def workers(self) -> Tuple[str, ...]:
        """The live worker names, sorted."""
        return tuple(sorted(self._workers))

    def _route(self, key: str) -> Optional[str]:
        """Resolve ``key``'s owner on the ring; ``None`` when it's empty."""
        try:
            return self._ring.owner(key)
        except LookupError:
            return None  # every worker is gone; callers synthesize

    def worker_failed(self, name: str) -> None:
        """Remove a dead worker: remap only its arcs, drop the memo.

        Idempotent — the supervisor and any number of failed link reads
        may all report the same death.
        """
        if name in self._ring:
            self._ring.remove(name)
            self.remaps += 1
            self._route_cache.clear()
        self._workers.pop(name, None)


# ---------------------------------------------------------------------------
# process orchestration (``repro serve --workers N``)
# ---------------------------------------------------------------------------

@dataclass
class ClusterConfig:
    """Everything needed to spawn and route one limiter cluster."""

    workers: int
    strategy: str
    period: float = 1.0
    spend_rate: Optional[int] = None
    capacity: Optional[int] = None
    shards: int = 8
    max_keys: int = 65536
    seed: Optional[int] = None
    host: str = "127.0.0.1"
    port: int = 0
    #: start fresh accounts empty (the paper's cold start) — keeps the
    #: burst bound airtight across failure remaps
    cold_start: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")


class WorkerHandle:
    """One spawned worker process and its resolved address."""

    def __init__(self, name: str, process: subprocess.Popen, host: str, port: int):
        self.name = name
        self.process = process
        self.host = host
        self.port = port

    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.poll() is None

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate the worker (escalating to kill), reaping it."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait(timeout=timeout)


def spawn_worker(
    config: ClusterConfig, index: int, duration: Optional[float] = None
) -> WorkerHandle:
    """Fork one ``repro serve`` worker and scrape its announced port.

    Workers bind port 0 on the cluster's host and announce the resolved
    port on stdout; each gets a distinct decision-RNG seed. A finite
    cluster ``duration`` becomes ``duration + 60`` in the worker — a
    self-destruct against orphans if the router dies uncleanly.
    """
    argv = [
        sys.executable,
        "-u",  # the parent scrapes the announce line from a pipe
        "-m",
        "repro",
        "serve",
        "--strategy",
        config.strategy,
        "--period",
        repr(config.period),
        "--host",
        config.host,
        "--port",
        "0",
        "--shards",
        str(config.shards),
        # each worker owns ~1/N of the key space, so the global LRU
        # budget splits across the fleet
        "--max-keys",
        str(max(config.shards, config.max_keys // config.workers)),
    ]
    if config.spend_rate is not None:
        argv += ["-A", str(config.spend_rate)]
    if config.capacity is not None:
        argv += ["-C", str(config.capacity)]
    if config.seed is not None:
        argv += ["--seed", str(config.seed + index)]
    if config.cold_start:
        argv.append("--cold-start")
    if duration is not None:
        argv += ["--duration", repr(duration + 60.0)]
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    name = f"w{index}"
    port: Optional[int] = None
    assert process.stdout is not None
    for _ in range(50):  # the announce is within the first few lines
        line = process.stdout.readline()
        if not line:
            break
        match = _ANNOUNCE.search(line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        process.terminate()
        process.wait(timeout=5.0)
        raise RuntimeError(f"worker {name} never announced its port")
    # Keep the pipe drained (the worker prints a stats line on exit).
    drain = threading.Thread(
        target=lambda: process.stdout.read(), name=f"drain-{name}", daemon=True
    )
    drain.start()
    return WorkerHandle(name, process, config.host, port)


async def _supervise(
    router: ClusterRouter, handles: List[WorkerHandle], interval: float = 0.5
) -> None:
    """Poll worker processes; report deaths to the ring."""
    while True:
        for handle in handles:
            if handle.process.poll() is not None:
                router.worker_failed(handle.name)
        await asyncio.sleep(interval)


async def _final_stats(
    router: ClusterRouter, handles: List[WorkerHandle]
) -> Dict[str, int]:
    """Aggregate worker counters for the shutdown summary line."""
    totals = {"admitted": 0, "rejected": 0, "keys": 0, "evictions": 0}
    for handle in handles:
        if not handle.alive():
            continue
        try:
            document = await asyncio.wait_for(
                fetch_stats(handle.host, handle.port), timeout=5.0
            )
        except (OSError, ValueError, asyncio.TimeoutError):
            continue
        for field in totals:
            totals[field] += int(document.get(field, 0))
    totals["workers"] = len(router._workers)
    totals["remaps"] = router.remaps
    return totals


async def _run_router(
    config: ClusterConfig,
    handles: List[WorkerHandle],
    duration: Optional[float],
    announce,
) -> Dict[str, int]:
    """Serve the public port for ``duration`` seconds (forever if None)."""
    router = ClusterRouter(
        {handle.name: (handle.host, handle.port) for handle in handles},
        host=config.host,
        port=config.port,
        seed=config.seed or 0,
    )
    await router.start()
    announce(
        f"routing {len(handles)}-worker admission cluster on "
        f"{config.host}:{router.port} (period {config.period}s)"
    )
    supervisor = asyncio.get_running_loop().create_task(
        _supervise(router, handles)
    )
    try:
        if duration is None:
            await asyncio.Event().wait()
        else:
            await asyncio.sleep(duration)
    except asyncio.CancelledError:
        pass
    finally:
        supervisor.cancel()
        stats = await _final_stats(router, handles)
        await router.close()
    return stats


def serve_cluster(
    config: ClusterConfig,
    duration: Optional[float] = None,
    announce=print,
) -> Dict[str, int]:
    """Spawn the workers, run the router, tear everything down.

    The ``repro serve --workers N`` entry point. Returns the final
    aggregated counters (empty on an interrupted run). Workers are
    always reaped — including on SIGTERM, which is translated to a
    clean ``SystemExit`` so the ``finally`` teardown runs.
    """
    handles: List[WorkerHandle] = []
    previous_handler = None
    try:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda *_: sys.exit(0)
        )
    except ValueError:  # pragma: no cover - not the main thread
        previous_handler = None
    stats: Dict[str, int] = {}
    try:
        for index in range(config.workers):
            handles.append(spawn_worker(config, index, duration))
        stats = asyncio.run(_run_router(config, handles, duration, announce))
    except KeyboardInterrupt:
        pass
    finally:
        if previous_handler is not None:
            try:
                signal.signal(signal.SIGTERM, previous_handler)
            except ValueError:  # pragma: no cover - not the main thread
                pass
        for handle in handles:
            handle.stop()
    return stats
