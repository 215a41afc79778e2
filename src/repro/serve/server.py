"""The asyncio TCP admission server (``repro serve``).

One :class:`~repro.serve.limiter.TokenAccountLimiter` shared by every
connection — the sharded account table is the synchronization point, so
the asyncio event loop and any worker threads see one consistent token
state per key.

Connections speak the length-prefixed binary protocol of
:mod:`repro.serve.wire`; the receive buffer, hello check, backpressure
and shutdown drain live in :mod:`repro.serve.connection`, shared with
the cluster router. This module supplies what a frame *means* here.

The hot path is batch-oriented: the connection answers *every* complete
request in the received chunk and flushes all responses with a single
write. A run of consecutive ``ACQUIRE`` frames is decided by **one**
:meth:`~repro.serve.limiter.TokenAccountLimiter.try_acquire_frames`
call (a ``STATS``/``PING`` frame is the only flush barrier) whose batch
core packs the ``DECISION`` records itself; the buffer it returns goes to
``transport.write`` as is, no ``Decision`` object or encoder in between —
so a pipelining client like :mod:`repro.serve.loadgen` amortizes syscall,
parse *and* per-decision lock cost over its pipeline depth. Frames are
parsed through ``memoryview`` slices of the receive buffer, zero-copy.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional

from repro.serve import wire
from repro.serve.connection import FramedConnection, FramedListener
from repro.serve.limiter import TokenAccountLimiter


class _AdmissionProtocol(FramedConnection):
    """One client connection: decide every buffered request in batches."""

    def __init__(self, server: "AdmissionServer"):
        super().__init__(server)
        self.limiter = server.limiter

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Answer every complete frame in the buffer with one write.

        Consecutive ``ACQUIRE`` frames become one
        ``try_acquire_frames`` batch answered by one packed response run;
        ``STATS``/``PING``/malformed frames are the flush barriers.
        """
        assert self.transport is not None
        buffer = self._buffer
        start = self._start
        end = self._end
        view = self._view
        parse = wire.parse_request_binary
        out: List[bytes] = []
        run_keys: List[str] = []
        run_flags: List[bool] = []
        keys_append = run_keys.append
        flags_append = run_flags.append
        oversized = False
        acquire_op = wire.OP_ACQUIRE
        bulk_op = wire.OP_ACQUIRE_BULK
        useful_flag = wire.FLAG_USEFUL
        key_limit = 2 + wire.MAX_KEY_LENGTH
        while end - start >= 2:
            length = buffer[start] | (buffer[start + 1] << 8)
            if length > wire.MAX_FRAME:
                oversized = True
                break
            frame_end = start + 2 + length
            if frame_end > end:
                break
            # ACQUIRE frames dominate a pipelined stream: decode them
            # inline (opcode + flags + utf-8 key, same semantics as
            # parse_request_binary) and let everything else take the
            # generic parser below.
            if (
                2 < length <= key_limit
                and buffer[start + 2] == acquire_op
            ):
                keys_append(str(view[start + 4 : frame_end], "utf-8", "replace"))
                flags_append(bool(buffer[start + 3] & useful_flag))
                start = frame_end
                continue
            payload = view[start + 2 : frame_end]
            start = frame_end
            try:
                if length >= 7 and payload[0] == bulk_op:
                    # Cluster router bulk fan-in: a barrier like STATS (the
                    # router's per-link FIFO counts on response order).
                    self._flush_acquires(run_keys, run_flags, out)
                    self._respond_bulk(payload, out)
                    continue
                command, key, useful = parse(payload)
            except ValueError as error:
                self._flush_acquires(run_keys, run_flags, out)
                out.append(
                    wire.encode_status_binary(
                        wire.STATUS_ERROR, str(error).encode()
                    )
                )
                continue
            if command == "A":
                assert key is not None
                run_keys.append(key)
                run_flags.append(useful)
            elif command == "S":
                self._flush_acquires(run_keys, run_flags, out)
                out.append(
                    wire.encode_status_binary(wire.STATUS_STATS, self._stats_json())
                )
            else:
                self._flush_acquires(run_keys, run_flags, out)
                out.append(wire.encode_status_binary(wire.STATUS_PONG))
        self._flush_acquires(run_keys, run_flags, out)
        self._start = start
        if oversized:
            out.append(
                wire.encode_status_binary(
                    wire.STATUS_ERROR,
                    b"frame exceeds %d bytes" % wire.MAX_FRAME,
                )
            )
            self.transport.write(b"".join(out))
            self.transport.close()  # cannot resync after a bad prefix
            return
        if out:
            self.transport.write(b"".join(out) if len(out) > 1 else out[0])

    def _flush_acquires(
        self, keys: List[str], flags: List[bool], out: List[bytes]
    ) -> None:
        """Decide a pending ``ACQUIRE`` run: the limiter packs the reply."""
        if not keys:
            return
        useful = True if all(flags) else flags
        out.append(self.limiter.try_acquire_frames(keys, useful))
        keys.clear()
        flags.clear()

    def _respond_bulk(self, payload, out: List[bytes]) -> None:
        """Answer one ``ACQUIRE_BULK`` frame with ``RUN`` frames only.

        Every group, whatever its count, gets one closed-form ``RUN``
        frame when the strategy qualifies, or its ``count`` decisions
        through the exact generic batch path otherwise, re-framed as
        single-decision ``RUN`` frames, so the router reads one fixed
        stride whatever the strategy. A count-1 group is not special:
        the router forwards those as plain ``ACQUIRE`` frames
        (``cluster.py`` ``flush()``), so none is worth batching here.
        One clock read covers the whole frame — the same
        single-timestamp semantics a run of plain ``ACQUIRE`` frames
        gets from ``try_acquire_frames``.
        """
        limiter = self.limiter
        now = limiter._clock()
        run = limiter.try_acquire_run
        for key, useful, count in wire.parse_bulk_binary(payload):
            result = run(key, count, useful, now=now)
            if result is not None:
                admits, rejects, balance, reason, retry = result
                out.append(
                    wire.encode_run_binary(reason, admits, rejects, balance, retry)
                )
            else:
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
        :attr:`port` after :meth:`start`).
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
    """Start a server and run it for ``duration`` seconds (forever if ``None``).

    The ``repro serve`` entry point: announces the bound address via
    ``announce`` (so scripts can scrape the port when asking for port 0)
    and returns the limiter for a final stats line.
    """
    server = await AdmissionServer(limiter, host, port).start()
    announce(
        f"serving {limiter.strategy.describe()} admission control on "
        f"{host}:{server.port} (period {limiter.period}s)"
    )
    try:
        if duration is None:
            await server.serve_forever()
        else:
            await asyncio.sleep(duration)
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
    return limiter
