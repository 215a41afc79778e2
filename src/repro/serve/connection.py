"""The framed-connection core: every endpoint of the wire protocol.

What its three users — the server (listens), the cluster router (both
halves) and the load generator (connects) — need of the wire protocol
(:mod:`repro.serve.wire`) besides deciding what a frame means:

* :class:`ReceiveBuffer` — bytes land by ``recv_into``
  (:class:`asyncio.BufferedProtocol`) in a preallocated buffer and are
  parsed in place.
* :class:`FramedLink` — the one client (router→worker links, ``repro
  loadgen``, :func:`fetch_stats`): :meth:`~FramedLink.connect` does the
  hello, frames and DECISION records are read by ``await`` in that buffer.
* :class:`FramedConnection` — one accepted connection on that buffer: its
  first bytes are :data:`~repro.serve.wire.MAGIC`, acked at once, or it
  gets one ``!`` line and a close, and the socket's read side is held
  whenever requests must not be accepted: the peer is not draining
  replies, the subclass owes too many, or the endpoint is shutting down.
  Its :meth:`~FramedConnection.drain` is the one walk over a receive
  buffer; a subclass says what a batch of ``ACQUIRE`` frames, any other
  frame and the walk's end mean.
* :class:`FramedListener` — the listening half: the one bind (before
  any event loop runs; port 0 read back), :meth:`~FramedListener.serve`
  until a duration ends or the task is cancelled (:func:`until_stopped`:
  SIGTERM and SIGINT cancel it), and a close that lets every owed reply
  reach its socket first.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import struct
from typing import Dict, List, Optional, Set

import numpy as np

from repro.serve import wire

#: per-connection receive buffer; the residue a drain leaves is always
#: smaller than one frame (< 4 KiB), so this never needs to grow
_RECV_BUFFER = 2**16

#: what a connection that does not open with the hello is told
_REFUSAL = b"! unsupported protocol: expected the binary wire v1 hello\n"

#: the constant head of every DECISION frame: u16 length, status
_DECISION_HEAD = struct.pack("<HB", wire.DECISION_FRAME_SIZE - 2, wire.STATUS_DECISION)

#: how long a closing listener waits for owed replies to reach their sockets
_CLOSE_TIMEOUT = 5.0

#: what stops a ``repro serve`` process: each cancels its serving task
_STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)

#: rows of one size below which reading a stretch as rows loses to
#: reading its frames one by one (measured in ARCHITECTURE.md, *Serving*)
_ROWS_MIN = 128


def stretch_rows(
    buffer: bytearray, start: int, end: int, length: int, least: int
) -> Optional[np.ndarray]:
    """The rows of a stretch of same-size ``ACQUIRE`` frames, if it may be one.

    Called at a stretch's first frame (at ``start``, payload ``length``):
    the :func:`~repro.serve.wire.acquire_rows` view from ``start`` when a
    frame with the same head — length prefix and opcode — lies
    ``least - 1`` frames on, else ``None``. A stretch that only looks long
    costs ``least`` rows at most: ``acquire_rows`` checks no more before it
    gives up. Callers look once per stretch (were a stretch short, so are
    its tails).
    """
    last = start + (least - 1) * (2 + length)
    if last + 2 + length > end or buffer[last : last + 3] != buffer[start : start + 3]:
        return None
    return wire.acquire_rows(buffer, start, end, length, least)


def _row_frames(rows: np.ndarray) -> List[bytes]:
    """Each of :func:`~repro.serve.wire.acquire_rows`' rows as one frame's
    bytes, whole: a void view keeps trailing NUL key bytes (an ``S``
    dtype would strip them)."""
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()


class HelloError(ValueError):
    """The peer did not echo the hello (no :class:`OSError`: the host was reached)."""


class BindError(OSError):
    """A listener could not bind its address (the OS error is the cause)."""


class ReceiveBuffer(asyncio.BufferedProtocol):
    """A preallocated receive buffer, parsed in place.

    ``_start``/``_end`` delimit the unparsed region of ``_buffer``
    (``_view`` is a ``memoryview`` of it, so a parser works through
    zero-copy slices). The region moves only in :meth:`get_buffer`, so
    a view of it is good until the event loop runs again. A subclass
    that can fill the buffer must hold the read side while it is full:
    an empty receive view is fatal to an asyncio transport.
    """

    def __init__(self, size: int):
        self._buffer = bytearray(size)
        self._view = memoryview(self._buffer)
        self._start = 0
        self._end = 0

    def get_buffer(self, sizehint: int) -> memoryview:
        """The free tail of the receive buffer (asyncio callback)."""
        if self._start and self._start == self._end:
            self._start = self._end = 0
        elif len(self._buffer) - self._end < 2048 and self._start:
            # Compact the unparsed residue to the front: a memmove
            # through the view, no temporary and never a resize.
            remaining = self._end - self._start
            self._view[:remaining] = self._view[self._start : self._end]
            self._start, self._end = 0, remaining
        return self._view[self._end :]


class FramedLink(ReceiveBuffer):
    """The connecting side of a framed connection, read by ``await``.

    Readers look at ``_buffer[_start:_end]`` in place, :meth:`_fill`
    when it does not hold enough yet and :meth:`_consume` what they
    took. The read side is held while the buffer is full, so ``size``
    must fit the longest run of bytes a reader waits for.
    """

    def __init__(self, size: int):
        super().__init__(size)
        self.transport: Optional[asyncio.Transport] = None
        self._eof = False  # the peer closed the link: nothing more comes
        self._arrived = asyncio.Event()
        self._writable = asyncio.Event()  # clear while the transport is backed up
        self._writable.set()

    @classmethod
    async def connect(cls, host: str, port: int, *args) -> "FramedLink":
        """A ``cls(*args)`` link to ``host:port`` with the hello done — or closed
        again and :class:`HelloError`: the peer hung up or sent something else."""
        loop = asyncio.get_running_loop()
        _, link = await loop.create_connection(lambda: cls(*args), host, port)
        link.transport.write(wire.MAGIC)
        try:
            if await link.take(len(wire.MAGIC)) == wire.MAGIC:
                return link
        except ConnectionError:
            pass
        link.close()
        raise HelloError(f"{host}:{port} did not echo the binary wire v1 hello")

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self._eof = True
        self._arrived.set()
        self._writable.set()

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    async def drain(self) -> None:
        """Wait while the transport is above its high-water mark (``pause_writing``)."""
        await self._writable.wait()
        if self._eof:
            raise ConnectionError("the peer closed the link")

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        if self._end - self._start == len(self._buffer):
            self.transport.pause_reading()  # full, until a reader consumes
        self._arrived.set()

    def close(self) -> None:
        try:
            self.transport.close()
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    async def _fill(self, offset: int = 0, head: bytes = b"") -> None:
        """Wait for the peer's next bytes — unless it hung up, or those at
        ``offset`` already cannot begin the ``head`` record awaited there."""
        got = self._buffer[offset : min(offset + len(head), self._end)]
        if self._eof or got != head[: len(got)]:
            raise ConnectionError("the reply stream cannot line up with the requests")
        self._arrived.clear()
        await self._arrived.wait()

    def _consume(self, nbytes: int) -> None:
        """Step past ``nbytes`` read in place; a full buffer has room again."""
        if self._end - self._start == len(self._buffer):
            self.transport.resume_reading()
        self._start += nbytes

    async def take(self, nbytes: int) -> bytes:
        """The next ``nbytes`` bytes, copied out (a hello echo, a frame)."""
        while self._end - self._start < nbytes:
            await self._fill()
        taken = bytes(self._view[self._start : self._start + nbytes])
        self._consume(nbytes)
        return taken

    async def frame(self) -> bytes:
        """The next length-prefixed frame's payload."""
        return await self.take(int.from_bytes(await self.take(2), "little"))

    async def decisions(self, count: int, partial: bool = False) -> np.ndarray:
        """The next ``count`` DECISION records, viewed in place (good until the
        caller's next ``await``) — or, if ``partial``, as many of them as have
        arrived whole, at least one: what a wake-up brought. Refused as soon
        as the bytes present cannot begin that."""
        size = wire.DECISION_FRAME_SIZE
        status = wire.STATUS_DECISION
        while True:
            start = self._start
            whole = min((self._end - start) // size, count)
            records = np.frombuffer(self._buffer, wire.DECISION_DTYPE, whole, start)
            if ((records["len"] != size - 2) | (records["status"] != status)).any():
                raise ConnectionError("an ACQUIRE was answered without a DECISION")
            if whole == count or (partial and whole):
                self._consume(whole * size)
                return records
            await self._fill(start + whole * size, _DECISION_HEAD)


async def fetch_stats(host: str, port: int) -> Dict[str, object]:
    """A server's or router's STATS document; ``ValueError`` on a protocol mismatch."""
    link = await FramedLink.connect(host, port, _RECV_BUFFER)
    try:
        link.transport.write(wire.encode_command_binary(wire.OP_STATS))
        status, value = wire.decode_response_binary(await link.frame())
    except ConnectionError as error:
        raise ValueError("server closed mid-response") from error
    finally:
        link.close()
    if status != wire.STATUS_STATS:
        raise ValueError(f"expected a STATS response, got status {status}")
    return json.loads(value)


async def until_stopped(duration: Optional[float]) -> None:
    """Return after ``duration`` seconds (``None``: never), or once the
    calling task is cancelled.

    Every ``repro serve`` process — the single server, the cluster router
    and each worker — waits here for the end of serving. Meanwhile
    SIGTERM and SIGINT cancel the task from the event loop, so a signal
    ends the wait like any other cancel and the caller's teardown runs;
    once it returns they have their default meaning again.
    """
    loop = asyncio.get_running_loop()
    task = asyncio.current_task()
    for signum in _STOP_SIGNALS:
        loop.add_signal_handler(signum, task.cancel)
    try:
        if duration is None:
            await loop.create_future()
        else:
            await asyncio.sleep(duration)
    except asyncio.CancelledError:
        pass
    finally:
        for signum in _STOP_SIGNALS:
            loop.remove_signal_handler(signum)


class FramedConnection(ReceiveBuffer):
    """One client connection: hello, read-side holds, a drain per wake-up."""

    def __init__(self, listener: "FramedListener"):
        super().__init__(_RECV_BUFFER)
        self.listener = listener
        self.transport: Optional[asyncio.Transport] = None
        #: the hello was acked: buffered frames go to :meth:`drain`
        self._ready = False
        #: why the read side is paused right now (empty = reading)
        self._holds: Set[str] = set()

    # ------------------------------------------------------------------
    # what a subclass supplies
    # ------------------------------------------------------------------
    def batch(self, parts: list) -> None:
        """Take one batch: consecutive ``ACQUIRE`` frames with valid keys.

        ``parts`` lie in buffer order, each a stretch read as rows or the
        offsets of consecutive lone frames and the end of the last one;
        they are good until the walk returns.
        """
        raise NotImplementedError

    def frame(self, payload: memoryview) -> None:
        """Take any other frame's payload: a command, a bulk frame or a
        malformed one. The batch before it has been taken."""
        raise NotImplementedError

    def drained(self, oversized: bool) -> None:
        """The walk is over; a length prefix over ``MAX_FRAME`` ended it if
        ``oversized``, and nothing after that prefix can be framed."""
        raise NotImplementedError

    def idle(self) -> bool:
        """Whether every reply owed to the peer has reached the socket."""
        assert self.transport is not None
        return not self.transport.get_write_buffer_size()

    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        """Register with the listener (asyncio callback)."""
        self.listener.connections += 1
        self.listener._protocols.add(self)
        self.transport = transport

    def connection_lost(self, exc) -> None:
        """Unregister from the listener (asyncio callback)."""
        self.listener.connections -= 1
        self.listener._protocols.discard(self)
        self.transport = None

    def hold(self, reason: str) -> None:
        """Stop reading requests until ``reason`` is released."""
        if not self._holds and self.transport is not None:
            self.transport.pause_reading()
        self._holds.add(reason)

    def release(self, reason: str) -> None:
        """Drop one hold; reading resumes when none is left."""
        if reason in self._holds:
            self._holds.remove(reason)
            if not self._holds and self.transport is not None:
                self.transport.resume_reading()

    def pause_writing(self) -> None:
        """The client stopped draining responses: stop accepting requests
        rather than buffer replies without bound (asyncio callback)."""
        self.hold("peer-not-reading")

    def resume_writing(self) -> None:
        """The client drains responses again (asyncio callback)."""
        self.release("peer-not-reading")

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Walk every complete frame in ``_buffer[_start:_end]``: length
        prefixes, the ``MAX_FRAME`` cut, partial frames, valid keys, row
        stretches (:func:`stretch_rows`) and batch barriers.

        Consecutive ``ACQUIRE`` frames with a valid key are one batch, for
        :meth:`batch` at the next other frame (for :meth:`frame`) or at the
        end. A key of at most ``MAX_KEY_LENGTH`` bytes is valid as it lies;
        a longer one is decoded once to count its characters.
        """
        buffer = self._buffer
        view = self._view
        start = self._start
        end = self._end
        parts: list = []
        lone: Optional[List[int]] = None  # the part lone frames join
        acquire_op = wire.OP_ACQUIRE
        max_frame = wire.MAX_FRAME
        max_key = wire.MAX_KEY_LENGTH
        key_limit = 2 + max_key
        stretch = 0  # the payload length of the ACQUIRE frames being read
        oversized = False
        while end - start >= 2:
            length = buffer[start] | (buffer[start + 1] << 8)
            if length > max_frame:
                oversized = True
                break
            stop = start + 2 + length
            if stop > end:
                break
            if (
                length > 2
                and buffer[start + 2] == acquire_op
                and (
                    length <= key_limit
                    or len(str(view[start + 4 : stop], "utf-8", "replace")) <= max_key
                )
            ):
                if length != stretch:  # a stretch of one size starts here
                    stretch = length
                    if length <= key_limit:
                        rows = stretch_rows(buffer, start, end, length, _ROWS_MIN)
                        if rows is not None:
                            parts.append(rows)
                            lone = None
                            start += rows.size
                            continue
                if lone is None:
                    lone = [start]
                    parts.append(lone)
                lone.append(stop)
                start = stop
                continue
            if parts:
                self.batch(parts)
                parts = []
                lone = None
            stretch = 0
            self.frame(view[start + 2 : stop])
            start = stop
        if parts:
            self.batch(parts)
        self._start = start
        self.drained(oversized)

    def buffer_updated(self, nbytes: int) -> None:
        """``nbytes`` more arrived: drain them, or check the hello first."""
        self._end += nbytes
        if self._ready:
            self.drain()
        else:
            self._check_hello()

    def _check_hello(self) -> None:
        """Accept :data:`wire.MAGIC` — ack it, then drain the frames that
        came with it — and refuse anything else with one line."""
        assert self.transport is not None
        magic = wire.MAGIC
        got = bytes(self._view[: min(self._end, len(magic))])
        if got != magic[: len(got)]:
            self.transport.write(_REFUSAL)
            self.transport.close()
        elif len(got) == len(magic):
            self._start += len(magic)
            self.transport.write(magic)
            self._ready = True
            self.drain()


class FramedListener:
    """A TCP endpoint accepting :class:`FramedConnection` subclasses.

    ``host``/``port`` are the bind address; port 0 picks a free port
    (read it back from :attr:`port` after :meth:`bind` — this is how
    the loopback tests avoid port races).
    """

    #: the :class:`FramedConnection` subclass built per accepted socket
    connection_class = FramedConnection

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self.connections = 0
        #: the listening socket :meth:`bind` made, until :meth:`start` serves it
        self.sock: Optional[socket.socket] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._protocols: Set[FramedConnection] = set()

    def bind(self) -> "FramedListener":
        """Bind and listen, with no event loop; resolves :attr:`port`.

        A host name binds its first address only. Raises
        :class:`BindError` if the address cannot be bound.
        """
        sock = None
        try:
            family, kind, proto, _, address = socket.getaddrinfo(
                self.host or None,
                self.port,
                type=socket.SOCK_STREAM,
                flags=socket.AI_PASSIVE,
            )[0]
            # proto must say IPPROTO_TCP (socket.create_server leaves it 0):
            # asyncio sets TCP_NODELAY only on accepted sockets that say so,
            # and Nagle's delay cost cluster_hot ≈ 14 % of its decisions/s
            sock = socket.socket(family, kind, proto)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(address)
            sock.listen()
        except OSError as error:
            if sock is not None:
                sock.close()
            reason = os.strerror(error.errno) if error.errno else error
            raise BindError(f"cannot bind {self.host}:{self.port}: {reason}") from error
        self.sock = sock
        self.port = sock.getsockname()[1]
        return self

    async def start(self) -> "FramedListener":
        """Start accepting connections on the bound socket (:meth:`bind` first
        if there is none yet)."""
        if self.sock is None:
            self.bind()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: self.connection_class(self), sock=self.sock
        )
        return self

    async def serve(self, duration: Optional[float] = None) -> None:
        """Serve for ``duration`` seconds, else until stopped
        (:func:`until_stopped`); then :meth:`close`."""
        await self.start()
        try:
            await until_stopped(duration)
        finally:
            await self.close()

    async def close(self) -> None:
        """Stop accepting, drain in-flight responses, close every transport.

        A pipelined client can have kilobytes of DECISION frames in a
        transport's write buffer at shutdown; ``transport.close()`` alone
        schedules a flush that dies with the event loop (``asyncio.run``
        tears it down as the coroutine returns), truncating the final
        batch. So: stop reading (no new decisions), wait up to
        ``_CLOSE_TIMEOUT`` seconds for every connection to be
        :meth:`~FramedConnection.idle`, then close.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = [
            protocol
            for protocol in self._protocols
            if protocol.transport is not None and not protocol.transport.is_closing()
        ]
        transports = [protocol.transport for protocol in pending]
        for protocol in pending:
            # Freeze the request side first so the set of owed responses
            # stops growing.
            protocol.hold("closing")
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _CLOSE_TIMEOUT
        while pending:
            pending = [
                protocol
                for protocol in pending
                if protocol.transport is not None
                and not protocol.transport.is_closing()
                and not protocol.idle()
            ]
            if not pending or loop.time() >= deadline:
                break
            await asyncio.sleep(0.01)
        for transport in transports:
            transport.close()
