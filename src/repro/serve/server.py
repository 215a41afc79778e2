"""The asyncio TCP admission server (``repro serve``).

One :class:`~repro.serve.limiter.TokenAccountLimiter` shared by every
connection — the sharded account table is the synchronization point, so
the asyncio event loop and any worker threads see one consistent token
state per key.

Connections speak the length-prefixed binary protocol of
:mod:`repro.serve.wire`; the receive buffer and its walk, hello check,
backpressure and shutdown drain live in :mod:`repro.serve.connection`,
shared with the cluster router. This module supplies what a frame
*means* here.

The hot path is batch-oriented: the connection answers *every* complete
request in the received chunk and flushes all responses with a single
write. A batch of consecutive ``ACQUIRE`` frames becomes **one**
:meth:`~repro.serve.limiter.TokenAccountLimiter.try_acquire_frames`
call whose batch core packs the ``DECISION`` records, written as is —
except where a stretch of ``_ROWS_MIN`` same-size frames is answered
byte for byte the same by NumPy rows decided once per key
(:meth:`~repro.serve.limiter.TokenAccountLimiter.try_acquire_runs`, the
*grouped road*; ARCHITECTURE.md, *Serving*). Consecutive
``ACQUIRE_BULK`` frames (a cluster router's) are decided together, by
one ``try_acquire_runs`` call, at the next barrier. Any other frame is a
flush barrier.

:class:`ServeConfig` is one ``repro serve``'s settings, in either shape:
its :meth:`~ServeConfig.limiter` is the one place a served limiter is
built, for the single server and for every cluster worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.serve import wire
from repro.serve.connection import (
    _ROWS_MIN,
    FramedConnection,
    FramedListener,
    _row_frames,
)
from repro.serve.limiter import TokenAccountLimiter

#: rows per group above which the grouped road loses to the frame road
#: (measured in ARCHITECTURE.md, *Serving*)
_ROWS_PER_GROUP = 4


@dataclass
class ServeConfig:
    """One ``repro serve``: the limiter it serves, where, and in what shape."""

    strategy: str
    period: float = 1.0
    spend_rate: Optional[int] = None
    capacity: Optional[int] = None
    shards: int = 8
    max_keys: int = 65536
    seed: Optional[int] = None
    host: str = "127.0.0.1"
    port: int = 0
    #: 0 = one in-process server; N = N forked workers behind a router
    #: (:func:`~repro.serve.cluster.serve_cluster`)
    workers: int = 0
    #: start fresh accounts empty (the paper's cold start) — keeps the
    #: burst bound airtight across failure remaps
    cold_start: bool = False

    def limiter(self, worker: Optional[int] = None) -> TokenAccountLimiter:
        """The limiter this config serves: the single server's, or ``worker``'s.

        Worker ``index`` of a cluster draws decisions from seed
        ``seed + index`` and owns ~1/N of the key space, so the LRU
        budget splits across the fleet.
        """
        seed, max_keys = self.seed, self.max_keys
        if worker is not None:
            seed = None if seed is None else seed + worker
            max_keys = max(self.shards, max_keys // self.workers)
        return TokenAccountLimiter(
            self.strategy,
            period=self.period,
            spend_rate=self.spend_rate,
            capacity=self.capacity,
            shards=self.shards,
            max_keys=max_keys,
            seed=seed,
            initial_tokens=0 if self.cold_start else None,
        )


class _AdmissionProtocol(FramedConnection):
    """One client connection: decide every buffered request in batches."""

    def __init__(self, server: "AdmissionServer"):
        super().__init__(server)
        self.limiter = server.limiter
        #: this walk's replies, written together when it ends
        self._out: List[bytes] = []
        #: ``(key, useful, count)`` groups of the bulk frames met since the
        #: last barrier, decided together (:meth:`_respond_bulk`)
        self._bulk: List[tuple] = []
        #: the last stretch offered the grouped road had too many groups
        self._sparse = False

    # ------------------------------------------------------------------
    def batch(self, parts) -> None:
        """Decide a batch: its frames in one ``try_acquire_frames`` call, cut
        only where a stretch takes the grouped road (:meth:`_grouped`)."""
        self._respond_bulk()
        buffer, view = self._buffer, self._view
        useful = wire.FLAG_USEFUL
        keys: List[str] = []
        flags: List[bool] = []
        for part in parts:
            if type(part) is list:
                at = part[0]
                for to in part[1:]:
                    keys.append(str(view[at + 4 : to], "utf-8", "replace"))
                    flags.append(buffer[at + 3] & useful == useful)
                    at = to
                continue
            reply = self._grouped(part, lambda: self._decide(keys, flags))
            if reply is None:
                keys += wire.decode_keys(part[:, 4:])
                flags += (part[:, 3] & useful).astype(bool).tolist()
            else:
                self._out.append(reply)
        self._decide(keys, flags)

    def _decide(self, keys: List[str], flags: List[bool]) -> None:
        """Decide the pending frames in one call, which packs the reply."""
        if keys:
            every = True if all(flags) else flags
            self._out.append(self.limiter.try_acquire_frames(keys, every))
            keys.clear()
            flags.clear()

    def _grouped(self, rows: np.ndarray, decide: Callable[[], None]) -> Optional[bytes]:
        """The reply to a stretch read as ``rows`` on the grouped road, where
        that is byte for byte the frame road's: a closed-form strategy,
        ``_ROWS_MIN`` rows or more, at most one group per ``_ROWS_PER_GROUP``
        rows, distinct decoded keys and — once ``decide`` has decided the
        frames ahead — no eviction. Else ``None``. After a stretch with too
        many groups, the next is sorted only if its first ``count //
        _ROWS_PER_GROUP + 1`` frames are not all distinct (one ``set``):
        if they are, so many groups already decline it, and a connection
        of distinct keys sorts nothing."""
        limiter = self.limiter
        count = len(rows)
        if not limiter._run_closed_form or count < _ROWS_MIN:
            return None
        if self._sparse:
            head = count // _ROWS_PER_GROUP + 1
            if len(set(_row_frames(rows[:head]))) == head:
                return None
        last, counts, places = wire.group_rows(rows)
        self._sparse = len(last) * _ROWS_PER_GROUP > count
        if self._sparse:
            return None
        # one key under two flags bytes, or two byte strings that decode
        # to one key, would be two groups on one state
        names = wire.decode_keys(rows[last, 4:])
        if len(set(names)) < len(names):
            return None
        decide()
        if not limiter._table.fits(names):
            return None
        per_key = (rows[last, 3] & wire.FLAG_USEFUL).astype(bool).tolist()
        runs = limiter.try_acquire_runs(names, counts.tolist(), per_key)
        limiter.grouped += count
        return wire.decisions_from_runs(runs, places)

    def frame(self, payload) -> None:
        """Take a frame outside the batches: keep an ``ACQUIRE_BULK`` frame's
        groups for :meth:`_respond_bulk`; answer ``STATS``, ``PING``, or an
        ``ERROR`` for a malformed frame, after the groups kept so far."""
        try:
            if len(payload) >= 7 and payload[0] == wire.OP_ACQUIRE_BULK:
                self._bulk += wire.parse_bulk_binary(payload)
                return
            stats = wire.parse_request_binary(payload)[0] == "S"
        except ValueError as error:
            self._respond_bulk()
            self._reply(wire.STATUS_ERROR, str(error).encode())
            return
        self._respond_bulk()
        if stats:
            self._reply(wire.STATUS_STATS, self._stats_json())
        else:
            self._reply(wire.STATUS_PONG)

    def drained(self, oversized: bool) -> None:
        """Write the walk's replies at once; a bad prefix also ends the connection."""
        self._respond_bulk()
        if oversized:
            self._reply(wire.STATUS_ERROR, b"frame exceeds %d bytes" % wire.MAX_FRAME)
        out = self._out
        if out:
            self.transport.write(b"".join(out) if len(out) > 1 else out[0])
            out.clear()
        if oversized:
            self.transport.close()  # cannot resync after a bad prefix

    def _reply(self, status: int, body: bytes = b"") -> None:
        self._out.append(wire.encode_status_binary(status, body))

    def _respond_bulk(self) -> None:
        """Answer the kept ``ACQUIRE_BULK`` groups with ``RUN`` frames only.

        The groups of every bulk frame since the last barrier, in frame
        order, go to one ``try_acquire_runs`` call (a key in two frames is
        two groups on one state, each with its own records): the RUN
        stream is the one those frames would get one at a time. Where the
        strategy has no closed form, each group's ``count`` decisions go
        through ``try_acquire_frames``, re-framed as single-decision
        ``RUN`` frames — so the router reads one fixed stride whatever
        the strategy. One clock read covers every group kept, the whole
        walk's bulk frames up to the barrier.
        """
        groups = self._bulk
        if not groups:
            return
        self._bulk = []
        keys, flags, counts = zip(*groups)
        limiter, out = self.limiter, self._out
        runs = limiter.try_acquire_runs(keys, counts, flags)
        if runs is not None:
            out.append(wire.encode_runs_binary(runs))
            return
        now = limiter._clock()
        for key, useful, count in groups:
            frames = limiter.try_acquire_frames([key] * count, useful, now)
            out.append(wire.runs_from_decision_frames(frames))

    # ------------------------------------------------------------------
    def _stats_json(self) -> bytes:
        stats = dict(self.limiter.stats(), connections=self.listener.connections)
        return json.dumps(stats, sort_keys=True).encode()


class AdmissionServer(FramedListener):
    """A TCP admission-control server around one shared limiter.

    Parameters
    ----------
    limiter:
        The shared admission primitive.
    host, port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`port` after :meth:`bind`).
    """

    connection_class = _AdmissionProtocol

    def __init__(
        self, limiter: TokenAccountLimiter, host: str = "127.0.0.1", port: int = 0
    ):
        super().__init__(host, port)
        self.limiter = limiter


async def run_server(
    limiter: TokenAccountLimiter,
    host: str = "127.0.0.1",
    port: int = 0,
    duration: Optional[float] = None,
    announce=print,
) -> TokenAccountLimiter:
    """Serve ``limiter`` for ``duration`` seconds, else until stopped.

    The single ``repro serve``: announces the bound address via
    ``announce`` (so scripts can scrape the port when asking for port 0),
    serves until the duration ends, a cancel, SIGTERM or SIGINT
    (:meth:`~repro.serve.connection.FramedListener.serve`) and returns
    the limiter for a final stats line.
    """
    server = AdmissionServer(limiter, host, port).bind()
    announce(
        f"serving {limiter.strategy.describe()} admission control on "
        f"{host}:{server.port} (period {limiter.period}s)"
    )
    await server.serve(duration)
    return limiter
