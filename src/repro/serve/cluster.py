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
are grouped by verbatim frame bytes (= one group per key+flags), in the
order they first occur, positions remembered. Two roads file a frame
into the batch. The **frame road** takes one frame at a time: one bytes
copy, one dict hit. The **row road** takes a stretch of same-size
frames at once where the server's grouped road would (its trigger,
:func:`~repro.serve.server.stretch_rows`, and ``_ROWS_MIN`` are shared):
the stretch is viewed as NumPy rows (:func:`~repro.serve.wire.acquire_rows`)
and identical rows are grouped in one pass
(:func:`~repro.serve.wire.group_rows_first`). Both roads fill the same
groups, so one send serves them (:meth:`_RouterConnection._send`) and
the row road needs no threshold of its own: whatever the road, a worker
receives the same bytes. Routing is memoized frame-bytes → (worker,
bulk-record prefix) in a bounded dict, one lookup per distinct frame.
At the flush a group takes one of two forms, by its count alone. A
frame seen **once** is forwarded to its owner verbatim and the worker's
ordinary drain answers it with a 17-byte DECISION record. A frame seen
``count`` > 1 times collapses to one ~``5+len(key)``-byte
``ACQUIRE_BULK`` record, answered by 20-byte ``RUN`` frames and nothing
else (*Bulk admission* in :mod:`repro.serve.wire`). A worker is sent its
lone frames first, then its bulk records, each in first-occurrence
order, so its reply to a batch is two fixed strides.

The reply side never works per group. A responder task reassembles
client order **per worker per batch**, reading the link's preallocated
receive buffer in place (:class:`_WorkerLink`: nothing is allocated per
wake-up). The DECISION stride is scattered to its request positions as
opaque records; the RUN stride is cut where its records' decision
counts add up to what the batch owes that worker for repeats and copied
out of the link. Once every worker has answered, the batch's RUN
records are expanded in one columnar pass
(:func:`~repro.serve.wire.expand_runs`) and scattered the same way.
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
Worker death is detected two ways, both at once: the router's event
loop watches each worker's process sentinel, which turns readable the
moment the process ends, and any failed read on a worker link reports
the worker. Either path removes the member from the ring — which
remaps *only that worker's arcs* (~``1/W`` of the key space) and never
moves a key between survivors — bumps the ``remaps`` counter and drops
the route memo. Requests already in flight to the dead worker are
answered with synthesized REJECT frames (clients see backpressure, not
a protocol error); remapped keys start fresh accounts on their new
owner, the same contract as LRU eviction. Run workers with
``--cold-start`` to keep the burst bound airtight across a remap (a
fresh account then starts empty instead of full).

Process orchestration
---------------------
Workers are forked from the router (:func:`spawn_worker`) after its
imports and before its event loop starts, so a cluster pays one import,
not ``N + 1``: a worker only builds ``config.limiter(index)``
(:class:`~repro.serve.server.ServeConfig`) and runs the stock
:func:`~repro.serve.server.run_server`. This module imports what that
limiter runs on (``repro.core.kernel``, ``numpy.random``), so a forked
worker imports nothing. It sends its announce line up a
private one-way pipe, leaving the router's stdout to the router's own
announce; a pipe that closes first is a worker that never came up. The
router starts no thread, so a fork copies a single-threaded interpreter.
A worker serves until the router stops it, and watches the router's
sentinel as the router watches its: a router killed before its teardown
takes its workers with it.
At shutdown the router fetches its own STATS document over its public
port: the summary ``repro serve`` prints is the one any client reads.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import re
import signal
import struct
import sys
from multiprocessing.process import BaseProcess
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
import numpy.random  # noqa: F401  (a worker's limiter: imported before the fork)

import repro.core.kernel  # noqa: F401  (a worker's limiter: imported before the fork)
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
from repro.serve.server import _ROWS_MIN, ServeConfig, run_server, stretch_rows

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

#: reads the port from a worker's announce line
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
        verbatim frame bytes (= by key+flags, preserving per-key order)
        on one of two roads: the frame road files each frame in turn;
        where a frame with the same head lies ``_ROWS_MIN - 1`` frames on,
        the row road reads the stretch as NumPy rows and files it at once
        (:meth:`_file_rows`). A flush hands the batch to :meth:`_send`.
        ``STATS``/``PING``/malformed frames are batch barriers, enqueued
        in order behind the batches.
        """
        assert self.transport is not None
        buffer = self._buffer
        view = self._view
        start = self._start
        end = self._end
        links = self._links
        route = self.router._route_cache
        queue_put = self._queue.put_nowait
        #: verbatim ACQUIRE frame -> this batch's positions, in order
        groups: Dict[bytes, List[int]] = {}
        position = 0
        oversized = False
        acquire_op = wire.OP_ACQUIRE
        max_frame = wire.MAX_FRAME
        key_limit = 2 + wire.MAX_KEY_LENGTH
        least = _ROWS_MIN
        stretch = 0  # the length of the ACQUIRE frames being read

        def owe(item: tuple) -> None:
            # one reply frame outside a batch; callers flush() first
            self._outstanding += 1
            queue_put(item)

        def flush() -> None:
            nonlocal groups, position
            if position:
                self._send(groups, position)
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
                if length != stretch:  # a stretch of one size starts here
                    stretch = length
                    if length <= key_limit:  # every such key is valid
                        rows = stretch_rows(buffer, start, end, length, least)
                        if rows is not None:
                            groups = self._file_rows(rows, groups, position)
                            position += len(rows)
                            start += rows.size
                            continue
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
            stretch = 0
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

    def _file_rows(
        self, rows: np.ndarray, groups: Dict[bytes, List[int]], position: int
    ) -> Dict[bytes, List[int]]:
        """File a stretch of same-size ACQUIRE frames, read as ``rows`` from
        batch ``position`` on, into the batch's ``groups``; returns them.

        The row road, for ``_ROWS_MIN`` rows and more: identical rows are
        grouped at once, in first-occurrence order, and an empty batch
        is built from them in one call. A shorter stretch — one that
        only looked long — is filed row by row, like the frame road. The
        keys need no check: one of at most ``MAX_KEY_LENGTH`` bytes is
        valid, and the route memo is consulted at the flush.
        """
        grouped = len(rows) >= _ROWS_MIN
        if grouped:
            first, counts, order = wire.group_rows_first(rows)
            data = rows[first].tobytes()
            order = (order + position).tolist()
            ends = counts.cumsum().tolist()
            spans = [order[end - n : end] for end, n in zip(ends, counts.tolist())]
            self.router.rows += len(rows)
        else:
            data = rows.tobytes()
            spans = [[at] for at in range(position, position + len(rows))]
        stride = rows.shape[1]
        frames = [data[at : at + stride] for at in range(0, len(data), stride)]
        if grouped and not groups:
            return dict(zip(frames, spans))
        for frame, span in zip(frames, spans):
            group = groups.get(frame)
            if group is None:
                groups[frame] = span
            else:
                group += span
        return groups

    def _send(self, groups: Dict[bytes, List[int]], total: int) -> None:
        """Write one batch to its workers and queue its scatter plan.

        ``groups`` maps the batch's distinct ACQUIRE frames, in the order
        they first occur, to their positions. A frame is routed by one
        memo lookup. A worker is written its lone frames (count 1)
        verbatim, then one ``ACQUIRE_BULK`` record per repeated frame,
        each kind in first-occurrence order, so its reply to the batch is
        two fixed strides. The plan lists, per worker in order of first
        appearance, the positions its DECISION and RUN strides answer,
        then the positions of frames no worker owns (an empty ring).
        """
        router = self.router
        route = router._route_cache
        pack_count = wire.BULK_GROUP_COUNT.pack
        #: worker name -> (lone frames, their positions, bulk records
        #: of the repeated ones, their positions flat)
        pending: Dict[str, Tuple[list, list, list, list]] = {}
        orphans: List[int] = []
        for frame, positions in groups.items():
            entry = route.get(frame)
            if entry is None:
                # the ring changed underneath this batch (a remap drops
                # the whole memo), or the row road never looked
                entry = self._route_frame(frame)
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
            link = self._links.get(name)
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
        router.routed += total
        self._outstanding += total
        self._queue.put_nowait(("B", plan, total))

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
        positions answered, in the order asked. DECISION records are
        scattered as they are read; RUN records are copied out of their
        link and the batch's are expanded together, once. A read failure
        or protocol surprise marks the worker lost and what it still owes
        the batch becomes synthesized REJECT frames, keeping the client's
        stream complete and ordered.
        """
        merged = np.empty(total, dtype=wire.DECISION_RECORD)
        runs: List[bytes] = []
        places: List[np.ndarray] = []
        for name, positions, lone in plan:
            link = self._links.get(name) if name is not None else None
            frames = _SYNTH_REJECT
            if link is not None and not link.dead:
                try:
                    if lone:
                        records = await link.decisions(len(positions))
                        frames = records.view(wire.DECISION_RECORD)
                    else:
                        runs.append((await link.runs(len(positions))).tobytes())
                        places.append(positions)
                        continue
                except (ConnectionError, OSError):
                    self._worker_lost(name, link)
            merged[positions] = frames  # a view of the link: before the next await
        if runs:
            expanded = wire.expand_runs(np.frombuffer(b"".join(runs), wire.RUN_DTYPE))
            merged[np.concatenate(places)] = expanded.view(wire.DECISION_RECORD)
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
        document["rows"] = router.rows
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
        #: the coalescing factor), how many of those travelled as
        #: verbatim ACQUIRE frames and how many were read as rows, over
        #: every flushed batch
        self.groups = 0
        self.routed = 0
        self.forwarded = 0
        self.rows = 0

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

        Idempotent — the process sentinel and any number of failed link
        reads may all report the same death.
        """
        if name in self._ring:
            self._ring.remove(name)
            self.remaps += 1
            self._route_cache.clear()
        self._workers.pop(name, None)


# ---------------------------------------------------------------------------
# process orchestration (``repro serve --workers N``)
# ---------------------------------------------------------------------------

class WorkerHandle:
    """One forked worker process and its resolved address."""

    def __init__(self, name: str, process: BaseProcess, host: str, port: int):
        self.name = name
        self.process = process
        self.host = host
        self.port = port

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate the worker (escalating to kill), reaping it."""
        process = self.process
        if process.exitcode is None:
            process.terminate()
            process.join(timeout)
        if process.exitcode is None:  # pragma: no cover - stuck child
            process.kill()
            process.join(timeout)


def _serve_worker(config: ServeConfig, index: int, announce) -> None:
    """A forked worker's life: its limiter behind the stock server.

    It serves until the router stops it or exits. The child ends in
    ``os._exit`` (``multiprocessing``), never in the router's teardown;
    SIGTERM ends ``asyncio.run`` by the inherited handler.
    """
    limiter = config.limiter(index)
    serving = run_server(limiter, config.host, 0, None, announce.send)
    try:
        asyncio.run(_until_router_exits(serving))
    except KeyboardInterrupt:
        pass


async def _until_router_exits(serving) -> None:
    """Await ``serving`` until it ends or the router that forked this worker does.

    The mirror of :func:`watch_workers`: the parent's sentinel turns
    readable when the router exits, however it died (SIGKILL and OOM
    included), so the worker's loop wakes on the death itself. The
    callback removes its reader and cancels the serving task, which
    ``run_server`` takes as the end of serving. A worker keeps an
    earlier sibling's sentinel open until it exits itself, so orphans end
    last-forked first.
    """
    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    sentinel = multiprocessing.parent_process().sentinel

    def router_exited() -> None:
        loop.remove_reader(sentinel)
        task.cancel()

    loop.add_reader(sentinel, router_exited)
    try:
        await serving
    finally:
        loop.remove_reader(sentinel)


def spawn_worker(config: ServeConfig, index: int) -> WorkerHandle:
    """Fork one worker server and read its announced port from a pipe.

    Workers bind port 0 on the cluster's host and send their announce
    line up a private one-way pipe; each gets a distinct decision-RNG
    seed. A worker serves until it is stopped or the router exits
    (:func:`_until_router_exits`). A worker that exits before announcing
    closes the pipe: it is reaped and :class:`RuntimeError` raised at once.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # no fork start method (Windows)
        raise ValueError("--workers needs the 'fork' start method") from None
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(
        target=_serve_worker, args=(config, index, writer), daemon=True
    )
    process.start()
    writer.close()  # the child holds the only write end: its exit is EOF
    with reader:  # closed here, so later workers do not inherit it
        try:
            match = _ANNOUNCE.search(reader.recv()) if reader.poll(30.0) else None
        except EOFError:  # the child exited before it announced
            match = None
    name = f"w{index}"
    if match is None:
        WorkerHandle(name, process, config.host, 0).stop()
        raise RuntimeError(f"worker {name} never announced its port")
    return WorkerHandle(name, process, config.host, int(match.group(1)))


def watch_workers(
    router: ClusterRouter, handles: List[WorkerHandle]
) -> Callable[[], None]:
    """Report each worker's death to ``router`` as the process ends.

    A process's sentinel turns readable when it exits, so the event loop
    wakes on the death itself, with no poll; each callback removes its
    own reader and reaps the process. Returns what removes the rest, for
    before the router closes.
    """
    loop = asyncio.get_running_loop()

    def exited(handle: WorkerHandle) -> None:
        loop.remove_reader(handle.process.sentinel)
        handle.process.join()  # exiting already: its sentinel closed
        router.worker_failed(handle.name)

    def unwatch() -> None:
        for handle in handles:
            loop.remove_reader(handle.process.sentinel)

    for handle in handles:
        loop.add_reader(handle.process.sentinel, exited, handle)
    return unwatch


async def _run_router(
    config: ServeConfig,
    handles: List[WorkerHandle],
    duration: Optional[float],
    announce,
) -> Dict[str, object]:
    """Serve the public port for ``duration`` seconds (forever if None).

    Returns the router's own STATS document, read over its public port
    at shutdown (empty if that read fails).
    """
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
    unwatch = watch_workers(router, handles)
    stats: Dict[str, object] = {}
    try:
        if duration is None:
            await asyncio.Event().wait()
        else:
            await asyncio.sleep(duration)
    except asyncio.CancelledError:
        pass
    finally:
        unwatch()
        try:
            stats = await asyncio.wait_for(
                fetch_stats(config.host, router.port), timeout=5.0
            )
        except (OSError, ValueError, asyncio.TimeoutError):
            pass
        await router.close()
    return stats


def serve_cluster(
    config: ServeConfig,
    duration: Optional[float] = None,
    announce=print,
) -> Dict[str, object]:
    """Fork ``config.workers`` workers, run the router, tear everything down.

    The ``repro serve --workers N`` entry point. Returns the router's
    final STATS document (empty on an interrupted run). Workers are
    always reaped — including on SIGTERM, which is translated to a
    clean ``SystemExit`` so the ``finally`` teardown runs — and serve
    until then; a router that dies without that teardown ends them too
    (:func:`_until_router_exits`).
    """
    if config.workers < 1:
        raise ValueError(f"need at least one worker, got {config.workers}")
    handles: List[WorkerHandle] = []
    try:
        previous_handler = signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    except ValueError:  # pragma: no cover - not the main thread
        previous_handler = None
    stats: Dict[str, object] = {}
    try:
        for index in range(config.workers):
            handles.append(spawn_worker(config, index))
        stats = asyncio.run(_run_router(config, handles, duration, announce))
    except KeyboardInterrupt:
        pass
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        for handle in handles:
            handle.stop()
    return stats
