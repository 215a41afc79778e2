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
The router opens one binary link to every worker when it starts, before
it accepts a client, and every client's batches share it: a worker
answers them strictly FIFO, in the order the router wrote them. A
client's receive buffer is walked by
:meth:`~repro.serve.connection.FramedConnection.drain`, which hands over
each **batch** of consecutive ACQUIRE frames with valid keys, a stretch
of same-size ones read as NumPy rows by the server's own trigger.
A batch that is one such stretch — every batch of a client that
pipelines fixed-width keys — is planned from its columns
(:meth:`_RouterConnection._send_rows`): the rows' bytes are hashed in
one ``set``, so distinct frames are never sorted and go to their owners
as ``rows[singles]``; repeats are grouped by one sort
(:func:`~repro.serve.wire.group_rows_first`). Any other batch is grouped
by verbatim frame bytes (= one group per key+flags) in the order they
first occur, positions remembered (:meth:`_RouterConnection._send`).
Either way a worker receives the same bytes. Routing is memoized
frame-bytes → worker slot in a bounded dict, one lookup per distinct
frame.
At the flush a group takes one of two forms, by its count alone. A
frame seen **once** is forwarded to its owner verbatim and the worker's
ordinary drain answers it with a 17-byte DECISION record. A frame seen
``count`` > 1 times collapses to one ~``5+len(key)``-byte
``ACQUIRE_BULK`` record, answered by 20-byte ``RUN`` frames and nothing
else (*Bulk admission* in :mod:`repro.serve.wire`); a worker decides
the bulk frames of one read together, in one ``try_acquire_runs`` call.
A worker is sent its lone frames first, then its bulk records, each in
first-occurrence order, so its reply to a batch is two fixed strides.

The reply side never works per group. One responder task takes every
client's batches in the order they were written and reassembles each
client's order **per worker per batch**, reading the link's preallocated
receive buffer in place (:class:`_WorkerLink`: nothing is allocated per
wake-up). The DECISION stride is scattered to its request positions as
opaque records; the RUN stride — parsed once, when at least as many RUN
frames as the worker was sent bulk records are in — is cut where its
records' decision counts add up to what the batch owes that worker for
repeats and copied out of the link. Once every worker has answered, the
batch's RUN records are expanded in one columnar pass
(:func:`~repro.serve.wire.expand_runs`) and scattered the same way.
What a link received beyond that — the next batch's replies, a STATS
document — stays in its buffer for the next reader. A client that has
left still has its replies read, and dropped, so the next ones line up.

Order is kept per verbatim frame. Across frames — two keys, or one key
under both flag values — a batch is one instant: a worker decides its
lone frames, then its repeats group by group, however they interleaved.
Replies return in request order; §3.4 is per key over time, so it holds.

``STATS`` is a flush barrier: the router forwards it to every live
worker on the shared links (preserving FIFO alignment), sums the
per-worker counters and answers one aggregated document with cluster
fields (``workers``, ``remaps``, router ``connections``) added.
``PING`` is answered by the responder too, in its turn. The client-facing
receive buffer and its walk, hello check and shutdown drain are the
worker server's own (:mod:`repro.serve.connection`).

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
The router builds and binds each worker before forking it
(:func:`spawn_worker`): ``config.limiter(index)``
(:class:`~repro.serve.server.ServeConfig`) behind an
:class:`~repro.serve.server.AdmissionServer` bound to port 0, so a
limiter it would refuse and an address it cannot bind raise in the
router, before any fork, as they do for the single server. The child
only serves that socket; the router closes its own copy and reads
nothing from the child. Workers are forked after the router's imports
and before its event loop starts, so a cluster pays one import, not
``N + 1``, and a forked worker imports nothing. The router starts no
thread, so a fork copies a single-threaded interpreter. Only the router
ends a worker: it stops and reaps each one after its teardown, and a
worker watches the router's sentinel as the router watches its, so a
router killed before its teardown takes its workers with it. A worker
runs in a process group of its own, so a signal sent to the router's
group reaches the router alone, and in the ``SCHED_BATCH`` scheduling
class: a router write queues the worker's turn instead of preempting the
router mid-batch, so a worker wakes once per round. Every process stops
one way, by cancelling its serving task
(:func:`~repro.serve.connection.until_stopped`: SIGTERM and SIGINT do it
from the event loop). At shutdown the router fetches its own STATS
document over its public port, before it stops its workers: the summary
``repro serve`` prints is the one any client reads, with every worker's
counts in it.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import struct
from itertools import repeat
from multiprocessing.process import BaseProcess
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.serve import wire
from repro.serve.connection import (
    _RECV_BUFFER,
    _ROWS_MIN,
    FramedConnection,
    FramedLink,
    FramedListener,
    HelloError,
    _row_frames,
    fetch_stats,
    until_stopped,
)
from repro.serve.limiter import Decision
from repro.serve.ring import HashRing
from repro.serve.server import AdmissionServer, ServeConfig

#: virtual replicas per worker on the ring (:class:`~repro.serve.ring.HashRing`)
_REPLICAS = 96

#: how long a stopping worker gets to exit, after SIGTERM and after SIGKILL
_STOP_TIMEOUT = 5.0

#: route memo budget (frame bytes -> worker slot),
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


def _bulk_records(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row's ``ACQUIRE_BULK`` group record for its count, as a block's
    rows: the row with its u16 length and opcode replaced by the u16 key
    length, and the u16 count appended."""
    block = np.empty((len(rows), rows.shape[1] + 1), np.uint8)
    block[:, :2] = np.frombuffer(_U16.pack(rows.shape[1] - 4), np.uint8)
    block[:, 2:-2] = rows[:, 3:]
    block[:, -2:] = counts.astype("<u2")[:, None].view(np.uint8)
    return block


def _present(owners: np.ndarray) -> Tuple[List[int], bool]:
    """The worker slots among ``owners``, ascending, and whether any is
    ``-1`` (no owner)."""
    tally = np.bincount(owners + 1)
    return np.flatnonzero(tally[1:]).tolist(), bool(tally[0])


def _pack_bulk_rows(block: np.ndarray) -> bytes:
    """:func:`_pack_bulk_frames` of same-size records, the rows of ``block``
    (greedy packing puts as many in every frame but the last)."""
    per = (wire.MAX_FRAME - 1) // block.shape[1]
    return b"".join(
        _U16.pack(1 + part.size) + _BULK_OP + part.tobytes()
        for part in (block[at : at + per] for at in range(0, len(block), per))
    )


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
    """The router's one link to one worker, shared by every client.

    Each reader views what it is owed at ``_start``, steps past it and
    leaves the rest for the next one; a returned view is good until the
    caller's next ``await``. No reader waits for more than
    :data:`_LINK_BUFFER` contiguous bytes, so a full buffer (read side
    held) already holds whatever is awaited.
    """

    def __init__(self) -> None:
        super().__init__(_LINK_BUFFER)
        self.dead = False

    async def runs(self, owed: int, least: int = 1) -> np.ndarray:
        """The RUN records that answer the next ``owed`` decisions, at least
        ``least`` of them.

        The cut is the record where the running total of
        ``admits + rejects`` equals ``owed``; every RUN answers at least
        one decision, so it lies within the first ``owed`` records
        however much of later batches has already arrived. Anything
        else up to there — another status or length, a total that steps
        over ``owed`` or never reaches it — raises
        :class:`ConnectionError`: the stream can no longer be trusted
        to line up with what the router asked. Nothing is parsed before
        ``least`` whole records are in (a batch's bulk records, each
        answered by one RUN or more), and after a pass that fell short
        not before one more is: a stride that arrives over several
        wake-ups is parsed once. Until then only the head of the record
        being received is checked.
        """
        size = wire.RUN_FRAME_SIZE
        status = wire.STATUS_RUN
        while True:
            start = self._start
            whole = min((self._end - start) // size, owed)
            if whole >= least:
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
                least = whole + 1
            await self._fill(start + whole * size, _RUN_HEAD)


class _RouterConnection(FramedConnection):
    """One client connection through the router.

    Its batches are *routed* instead of decided: written to the router's
    worker links, and answered by the router's responder.
    """

    def __init__(self, router: "ClusterRouter"):
        super().__init__(router)
        self.router = router
        #: reply frames owed to the client and not yet written
        self._outstanding = 0
        #: the last batch read as one row stretch repeated frames
        self._repeats = False

    def idle(self) -> bool:
        """Nothing queued behind a worker gather, nothing unflushed."""
        return not self._outstanding and super().idle()

    # ------------------------------------------------------------------
    def _route_frame(self, frame: bytes) -> Optional[int]:
        """Route one ACQUIRE frame (the route-memo miss path).

        The memo is keyed by the *whole verbatim frame* — one bytes
        object per frame serves dedup and routing — and holds the owner's
        slot in :attr:`ClusterRouter._names` (distinct flag bytes for one
        key cost one extra memo entry each; only the key bytes feed the
        ring hash). Returns ``None`` — uncached — when every worker is
        gone.
        """
        slot = self.router._route(frame[4:].decode("utf-8", "replace"))
        if slot is None:
            return None
        cache = self.router._route_cache
        if len(cache) >= _ROUTE_CACHE_MAX:
            cache.clear()
        cache[frame] = slot
        return slot

    def batch(self, parts) -> None:
        """Route a batch: one row stretch alone is planned from its columns
        (:meth:`_send_rows`); anything else is grouped by verbatim frame
        bytes (= by key+flags, preserving per-key order) for :meth:`_send`."""
        view = self._view
        frames: List[bytes] = []
        append = frames.append
        for part in parts:
            if type(part) is list:
                at = part[0]
                for to in part[1:]:
                    append(bytes(view[at:to]))
                    at = to
                continue
            if len(part) >= _ROWS_MIN:
                self.router.rows += len(part)
            if len(parts) == 1:
                self._send_rows(part)
                return
            frames += _row_frames(part)
        self._send(frames)

    def frame(self, payload) -> None:
        """Answer ``PING`` here, forward ``STATS`` to every live worker, and
        queue an ``ERROR`` for anything else: batch barriers, in order."""
        try:
            command = wire.parse_request_binary(payload)[0]
        except ValueError as error:
            self._owe(("E", str(error).encode(), False))
            return
        if command == "S":
            # Written synchronously, in parse order, so each worker
            # link's FIFO stays aligned with the router's reply queue.
            stats_frame = wire.encode_command_binary(wire.OP_STATS)
            names = []
            for name, link in self.router._links.items():
                if not link.dead:
                    link.transport.write(stats_frame)
                    names.append(name)
            self._owe(("S", tuple(names)))
        else:  # "P": the walk took every ACQUIRE with a valid key
            self._owe(("P",))

    def drained(self, oversized: bool) -> None:
        """Hold the read side while too many replies are owed; after a bad
        prefix, queue the error that closes the connection."""
        if oversized:
            self._owe(("E", b"frame exceeds %d bytes" % wire.MAX_FRAME, True))
            self.hold("closing")  # cannot resync; dying anyway
        elif self._outstanding >= _PAUSE_OUTSTANDING:
            self.hold("outstanding")

    def _owe(self, item: tuple, frames: int = 1) -> None:
        """Queue the reply ``item`` (``frames`` reply frames) for the
        router's responder, behind every batch already written."""
        self._outstanding += frames
        self.router._queue.put_nowait((self, item))

    def _send(self, frames: List[bytes]) -> None:
        """Write one batch of ACQUIRE ``frames`` to its workers and queue
        its scatter plan.

        The distinct frames, grouped with their positions in the order
        they first occur, are routed by one memo lookup each. A worker is
        written its lone frames (count 1) verbatim, then one
        ``ACQUIRE_BULK`` record per repeated frame, each kind in
        first-occurrence order, so its reply to the batch is two fixed
        strides. The plan lists, per worker in order of first
        appearance, the positions its DECISION and RUN strides answer,
        each with how many bulk records it answers (0 for DECISION
        records), then the positions of frames no worker owns (an empty
        ring).
        """
        #: verbatim ACQUIRE frame -> this batch's positions, in order
        groups: Dict[bytes, List[int]] = {}
        get = groups.get
        for position, frame in enumerate(frames):
            group = get(frame)
            if group is None:
                groups[frame] = [position]
            else:
                group.append(position)
        route = self.router._route_cache
        #: worker slot -> (lone frames, their positions, bulk records
        #: of the repeated ones, their positions flat)
        pending: Dict[int, Tuple[list, list, list, list]] = {}
        orphans: List[int] = []
        for frame, positions in groups.items():
            slot = route.get(frame)
            if slot is None:
                # a frame new to the memo, or the ring changed (a remap
                # drops the whole memo)
                slot = self._route_frame(frame)
            if slot is None:
                # every worker is gone; the responder synthesizes
                orphans.extend(positions)
                continue
            bucket = pending.get(slot)
            if bucket is None:
                pending[slot] = bucket = ([], [], [], [])
            if len(positions) == 1:
                bucket[0].append(frame)
                bucket[1].append(positions[0])
            else:
                # the bulk group record: u16 key length, flags, key, u16 count
                bucket[2].append(
                    _U16.pack(len(frame) - 4) + frame[3:] + _U16.pack(len(positions))
                )
                bucket[3].extend(positions)
        router = self.router
        plan: List[Tuple[Optional[str], np.ndarray, int]] = []
        for slot, (lone, singles, records, repeats) in pending.items():
            name = router._names[slot]
            link = router._links.get(name)
            if link is not None and not link.dead:
                if records:
                    lone.append(_pack_bulk_frames(records))
                link.transport.write(b"".join(lone))
            if singles:
                plan.append((name, np.array(singles, dtype=np.intp), 0))
            if repeats:
                plan.append((name, np.array(repeats, dtype=np.intp), len(records)))
            router.forwarded += len(singles)
        if orphans:
            plan.append((None, np.array(orphans, dtype=np.intp), 0))
        total = len(frames)
        router.groups += len(groups)
        router.routed += total
        self._owe(("B", plan, total), total)

    def _send_rows(self, rows: np.ndarray) -> None:
        """Write a batch that is one row stretch and queue its plan, from columns.

        What :meth:`_send` writes and queues for the same frames, byte
        for byte, with no Python step per frame. The rows' bytes are
        hashed in one ``set``: a batch of distinct frames is never
        sorted, and a worker's share is ``rows[singles]``, cut by a mask
        of the memo's owners, read by one ``map``. A batch with repeats is
        grouped by one sort (:func:`~repro.serve.wire.group_rows_first`)
        and only its groups' first rows are routed; a connection whose
        last such batch had repeats sorts at once, without hashing first.
        """
        total = len(rows)
        #: per worker: (its first group, slot, bytes, singles, repeats, and
        #: how many bulk records it is sent)
        shares = []
        frames = None if self._repeats else _row_frames(rows)
        if frames is not None and len(set(frames)) == total:
            # every frame once: a group is a row, and nothing is sorted
            count = total
            owners = self._owners(frames)
            slots, orphaned = _present(owners)
            for slot in slots:
                singles = np.flatnonzero(owners == slot)
                data = rows[singles].tobytes()
                shares.append((singles[0], slot, data, singles, (), 0))
            orphans = np.flatnonzero(owners < 0) if orphaned else ()
        else:
            first, counts, order = wire.group_rows_first(rows)
            count = len(first)
            self._repeats = count < total
            heads = rows[first]
            owners = self._owners(_row_frames(heads))
            repeated = counts > 1
            records = _bulk_records(heads, counts)
            slots, orphaned = _present(owners)
            for slot in slots:
                mine = owners == slot
                bulk = mine & repeated
                singles = first[mine ^ bulk]
                data = rows[singles].tobytes() + _pack_bulk_rows(records[bulk])
                repeats = order[np.repeat(bulk, counts)]
                sent = int(np.count_nonzero(bulk))
                shares.append((mine.argmax(), slot, data, singles, repeats, sent))
            orphans = order[np.repeat(owners < 0, counts)] if orphaned else ()
        router = self.router
        plan: List[Tuple[Optional[str], np.ndarray, int]] = []
        for _, slot, data, singles, repeats, sent in sorted(shares, key=itemgetter(0)):
            name = router._names[slot]
            link = router._links.get(name)
            if link is not None and not link.dead:
                link.transport.write(data)
            if len(singles):
                plan.append((name, singles, 0))
            if len(repeats):
                plan.append((name, repeats, sent))
            router.forwarded += len(singles)
        if len(orphans):
            plan.append((None, orphans, 0))
        router.groups += count
        router.routed += total
        self._owe(("B", plan, total), total)

    def _owners(self, frames: List[bytes]) -> np.ndarray:
        """Each frame's worker slot by the route memo, ``-1`` for none
        (memo misses are routed in order, as :meth:`_send` would)."""
        route = self.router._route_cache
        owners = np.fromiter(map(route.get, frames, repeat(-1)), np.intp, len(frames))
        for at in np.flatnonzero(owners < 0).tolist():
            slot = self._route_frame(frames[at])
            if slot is not None:
                owners[at] = slot
        return owners

    def _answer(self, reply: bytes, owed: int, last: bool) -> None:
        """Write one reply the router's responder assembled, for ``owed``
        frames; ``last`` closes the connection after it. A client that
        has left drops it, and a write that fails closes only this one."""
        self._outstanding -= owed
        transport = self.transport
        if transport is None:
            return
        try:
            transport.write(reply)
        except OSError:
            last = True
        if last:
            transport.close()
        elif self._outstanding <= _RESUME_OUTSTANDING:
            self.release("outstanding")


class ClusterRouter(FramedListener):
    """The front-end router: public binary port over a worker ring.

    Parameters
    ----------
    workers:
        ``name -> (host, port)`` of the live worker servers.
    host, port:
        Public bind address; port 0 picks a free port (read it back
        from :attr:`port` after :meth:`start`).
    seed:
        The ring's hash seed — see :class:`~repro.serve.ring.HashRing`.
    """

    connection_class = _RouterConnection

    def __init__(
        self,
        workers: Mapping[str, Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int = 0,
    ):
        super().__init__(host, port)
        self._workers: Dict[str, Tuple[str, int]] = dict(workers)
        self._ring = HashRing(self._workers, replicas=_REPLICAS, seed=seed)
        #: slot -> worker name, for every worker the router started with
        self._names: Tuple[str, ...] = tuple(self._workers)
        self._slots: Dict[str, int] = {name: i for i, name in enumerate(self._names)}
        #: the route memo: frame bytes -> its owner's slot
        self._route_cache: Dict[bytes, int] = {}
        #: worker name -> the router's one link to it, shared by every client
        self._links: Dict[str, _WorkerLink] = {}
        #: (connection, reply item) in the order the links were written
        self._queue: "asyncio.Queue[Tuple[_RouterConnection, tuple]]" = asyncio.Queue()
        self._responder: Optional[asyncio.Task] = None
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

    def _route(self, key: str) -> Optional[int]:
        """Resolve ``key``'s owner's slot on the ring; ``None`` when it's empty."""
        try:
            return self._slots[self._ring.owner(key)]
        except LookupError:
            return None  # every worker is gone; callers synthesize

    def worker_failed(self, name: str) -> None:
        """Remove a dead worker: mark its link dead and close it, remap only
        its arcs, drop the memo.

        Idempotent — the process sentinel and any number of failed link
        reads may all report the same death.
        """
        link = self._links.get(name)
        if link is not None:
            link.dead = True
            link.close()
        if name in self._ring:
            self._ring.remove(name)
            self.remaps += 1
            self._route_cache.clear()
        self._workers.pop(name, None)

    # ------------------------------------------------------------------
    async def start(self) -> "ClusterRouter":
        """Bind, open one link to every worker and start the responder,
        then accept clients: a client never finds a link missing."""
        if self.sock is None:
            self.bind()
        for name, (host, port) in list(self._workers.items()):
            try:
                self._links[name] = await _WorkerLink.connect(host, port)
            except (HelloError, OSError):
                self.worker_failed(name)
        self._responder = asyncio.get_running_loop().create_task(self._respond())
        await super().start()
        return self

    async def close(self) -> None:
        """Close as every listener does, once every client has its replies;
        then stop the responder and close the worker links."""
        await super().close()
        if self._responder is not None:
            self._responder.cancel()
        for link in self._links.values():
            link.close()

    async def _respond(self) -> None:
        """Answer every batch and command in the order they were queued,
        which is the order each link was written (the response loop).

        A reply is read off the links whether or not its client is still
        there, so the replies behind it line up.
        """
        get = self._queue.get
        while True:
            connection, item = await get()
            kind = item[0]
            owed = 1
            last = False
            if kind == "B":
                owed = item[2]
                reply = await self._gather_batch(item[1], owed)
            elif kind == "S":
                document = await self._aggregate_stats(item[1])
                reply = wire.encode_status_binary(wire.STATUS_STATS, document)
            elif kind == "P":
                reply = wire.encode_status_binary(wire.STATUS_PONG)
            else:  # "E": error frame; fatal ones close the connection
                reply = wire.encode_status_binary(wire.STATUS_ERROR, item[1])
                last = item[2]
            connection._answer(reply, owed, last)

    async def _gather_batch(
        self, plan: List[Tuple[Optional[str], np.ndarray, int]], total: int
    ) -> bytes:
        """Collect one batch's worker replies, scattered to client order.

        ``plan`` lists, per worker and stride (DECISION records for its
        lone frames, then RUNs for its bulk records), the request
        positions answered, in the order asked, and how many bulk records
        the stride answers (0: DECISION records). DECISION records are
        scattered as they are read; RUN records are copied out of their
        link and the batch's are expanded together, once. A read failure
        or protocol surprise reports the worker lost and what it still
        owes the batch becomes synthesized REJECT frames, keeping the
        client's stream complete and ordered.
        """
        merged = np.empty(total, dtype=wire.DECISION_RECORD)
        runs: List[bytes] = []
        places: List[np.ndarray] = []
        for name, positions, bulk in plan:
            link = self._links.get(name) if name is not None else None
            frames = _SYNTH_REJECT
            if link is not None and not link.dead:
                try:
                    if not bulk:
                        records = await link.decisions(len(positions))
                        frames = records.view(wire.DECISION_RECORD)
                    else:
                        runs.append((await link.runs(len(positions), bulk)).tobytes())
                        places.append(positions)
                        continue
                except (ConnectionError, OSError):
                    self.worker_failed(name)
            merged[positions] = frames  # a view of the link: before the next await
        if runs:
            expanded = wire.expand_runs(np.frombuffer(b"".join(runs), wire.RUN_DTYPE))
            merged[np.concatenate(places)] = expanded.view(wire.DECISION_RECORD)
        return merged.tobytes()

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
                self.worker_failed(name)
                continue
            if not payload or payload[0] != wire.STATUS_STATS:
                continue  # defensive; a worker only ever answers STATS here
            document = json.loads(payload[1:])
            for field in ("admitted", "rejected", "keys", "evictions", "grouped"):
                totals[field] += int(document.get(field, 0))
            totals["worker_connections"] += int(document.get("connections", 0))
            meta.setdefault("strategy", document.get("strategy"))
            meta.setdefault("period", document.get("period"))
        document = dict(meta)
        document.update(totals)
        document["workers"] = len(self._workers)
        document["remaps"] = self.remaps
        document["connections"] = self.connections
        document["groups"] = self.groups
        document["routed"] = self.routed
        document["forwarded"] = self.forwarded
        document["rows"] = self.rows
        return json.dumps(document, sort_keys=True).encode()


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

    def stop(self) -> None:
        """Terminate the worker (escalating to kill), reaping it."""
        process = self.process
        if process.exitcode is None:
            process.terminate()
            process.join(_STOP_TIMEOUT)
        if process.exitcode is None:  # pragma: no cover - stuck child
            process.kill()
            process.join(_STOP_TIMEOUT)


def _serve_worker(server: AdmissionServer) -> None:
    """A forked worker's life: serve the socket the router bound for it.

    It serves until the router stops it or exits. It leaves the router's
    process group first: a signal sent to the group (a terminal's ^C, a
    supervisor's stop) is the router's to act on, and the router reads
    its workers' counts before it stops them. Then it enters the batch
    scheduling class (:func:`_batch_class`). The child ends in
    ``os._exit`` (``multiprocessing``), never in the router's teardown.
    """
    os.setpgid(0, 0)
    _batch_class()
    asyncio.run(_until_router_exits(server.serve()))


def _batch_class() -> None:
    """Put this process in ``SCHED_BATCH``, where the OS has it; else keep
    the class it inherited.

    A batch-class task that wakes does not preempt the one running on its
    core: a router write to a worker link queues the worker's turn instead
    of handing it the core in the middle of the router's batch, so the
    worker wakes once per round and reads everything the router wrote.
    """
    policy = getattr(os, "SCHED_BATCH", None)
    if policy is None:
        return
    try:
        os.sched_setscheduler(0, policy, os.sched_param(0))
    except OSError:
        pass


async def _until_router_exits(serving) -> None:
    """Await ``serving`` until it ends or the router that forked this worker does.

    The mirror of :func:`watch_workers`: the parent's sentinel turns
    readable when the router exits, however it died (SIGKILL and OOM
    included), so the worker's loop wakes on the death itself. The
    callback removes its reader and cancels the serving task, which
    :func:`~repro.serve.connection.until_stopped` takes as the end of
    serving. A worker keeps an earlier sibling's sentinel open until it
    exits itself, so orphans end last-forked first.
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
    """Build and bind worker ``index``'s server, then fork a child that serves it.

    The worker's limiter is ``config.limiter(index)`` (its own decision
    seed) and its socket is bound to port 0 on the cluster's host, both
    here: a limiter the settings refuse raises its :class:`ValueError`,
    and an address that cannot be bound :class:`BindError`, before the
    fork. The router closes its copy of the socket and reads nothing from
    the child, which serves until it is stopped or the router exits
    (:func:`_until_router_exits`).
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # no fork start method (Windows)
        raise ValueError("--workers needs the 'fork' start method") from None
    server = AdmissionServer(config.limiter(index), config.host, 0).bind()
    process = context.Process(target=_serve_worker, args=(server,), daemon=True)
    try:
        process.start()
    finally:
        server.sock.close()  # the child's copy is the one that serves
    return WorkerHandle(f"w{index}", process, config.host, server.port)


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
    """Serve the public port for ``duration`` seconds, else until stopped.

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
        await until_stopped(duration)
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
    final STATS document (empty if it could not be read). Workers are
    always reaped, and serve until then; a router that dies without that
    teardown ends them too (:func:`_until_router_exits`). A limiter the
    workers would refuse and a worker address that cannot be bound raise
    before the first fork, as the single server does (:func:`spawn_worker`).
    """
    if config.workers < 1:
        raise ValueError(f"need at least one worker, got {config.workers}")
    handles: List[WorkerHandle] = []
    try:
        for index in range(config.workers):
            handles.append(spawn_worker(config, index))
        return asyncio.run(_run_router(config, handles, duration, announce))
    finally:
        for handle in handles:
            handle.stop()
