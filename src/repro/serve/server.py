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
write. Consecutive ``ACQUIRE`` frames become **one**
:meth:`~repro.serve.limiter.TokenAccountLimiter.try_acquire_frames`
call whose batch core packs the ``DECISION`` records, written as is —
or, for a run of ``_ROWS_MIN`` same-size frames where that is byte for
byte the same answer, NumPy rows decided once per key
(:meth:`~repro.serve.limiter.TokenAccountLimiter.try_acquire_runs`, the
*grouped road*; ARCHITECTURE.md, *Serving*). Any other frame is a flush
barrier.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional

from repro.serve import wire
from repro.serve.connection import FramedConnection, FramedListener
from repro.serve.limiter import TokenAccountLimiter

#: rows of one size, and rows per group, below which the grouped road
#: loses to the frame road (measured in ARCHITECTURE.md, *Serving*)
_ROWS_MIN = 128
_ROWS_PER_GROUP = 4


class _AdmissionProtocol(FramedConnection):
    """One client connection: decide every buffered request in batches."""

    def __init__(self, server: "AdmissionServer"):
        super().__init__(server)
        self.limiter = server.limiter

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Answer every complete frame in the buffer with one write.

        Consecutive ``ACQUIRE`` frames become one ``try_acquire_frames``
        batch — or grouped rows, where ``_ROWS_MIN`` of one size follow
        (:meth:`_acquire_rows`); ``STATS``/``PING``/bulk/malformed frames
        are the flush barriers.
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
        rows_span = _ROWS_MIN - 1
        stretch = 0  # the length of the ACQUIRE frames being read inline
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
                if length != stretch:
                    # a stretch of one size starts here: rows if a frame with
                    # this head is _ROWS_MIN - 1 frames on (the rest of the
                    # stretch is unchecked: were it short, so are its tails)
                    stretch = length
                    last = start + rows_span * (2 + length)
                    if (
                        last + 2 + length <= end
                        and buffer[last : last + 3] == buffer[start : start + 3]
                    ):
                        start = self._acquire_rows(
                            start, length, run_keys, run_flags, out
                        )
                        continue
                keys_append(str(view[start + 4 : frame_end], "utf-8", "replace"))
                flags_append(bool(buffer[start + 3] & useful_flag))
                start = frame_end
                continue
            payload = view[start + 2 : frame_end]
            start = frame_end
            stretch = 0
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

    def _acquire_rows(
        self, start: int, length: int, keys: List[str], flags: List[bool], out
    ) -> int:
        """Decide the same-size ``ACQUIRE`` frames at ``start``; returns their end.

        The grouped road where it answers byte for byte what the pending
        batch would — a closed-form strategy, at most one group per
        ``_ROWS_PER_GROUP`` rows, distinct decoded keys, no eviction inside
        the batch; else the frames join that batch, keys decoded as a block.
        """
        rows = wire.acquire_rows(self._buffer, start, self._end, length, _ROWS_MIN)
        count = len(rows)
        useful = (rows[:, 3] & wire.FLAG_USEFUL).astype(bool)
        limiter = self.limiter
        if limiter._run_closed_form and count >= _ROWS_MIN:
            last, counts, places = wire.group_rows(rows)
            if len(last) * _ROWS_PER_GROUP <= count:
                # one key under two flags bytes, or two byte strings that
                # decode to one key, would be two groups on one state
                names = wire.decode_keys(rows[last, 4:])
                self._flush_acquires(keys, flags, out)
                if len(set(names)) == len(names) and limiter._table.fits(names):
                    per_key = useful[last].tolist()
                    runs = limiter.try_acquire_runs(names, counts.tolist(), per_key)
                    out.append(wire.decisions_from_runs(runs, places))
                    limiter.grouped += count
                    return start + count * (2 + length)
        keys += wire.decode_keys(rows[:, 4:])
        flags += useful.tolist()
        return start + count * (2 + length)

    def _respond_bulk(self, payload, out: List[bytes]) -> None:
        """Answer one ``ACQUIRE_BULK`` frame with ``RUN`` frames only.

        One ``try_acquire_runs`` call for the whole frame; where the
        strategy has no closed form, each group's ``count`` decisions
        through ``try_acquire_frames``, re-framed as single-decision
        ``RUN`` frames — so the router reads one fixed stride whatever
        the strategy. One clock read covers the whole frame.
        """
        groups = wire.parse_bulk_binary(payload)
        keys, flags, counts = zip(*groups)
        limiter = self.limiter
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
