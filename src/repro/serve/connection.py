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
  first bytes are :data:`~repro.serve.wire.MAGIC` or it gets one ``!``
  line and a close, and the socket's read side is held whenever requests
  must not be accepted: the peer is not draining replies, the subclass is
  not ready to drain yet, or the endpoint is shutting down. A subclass
  supplies :meth:`~FramedConnection.drain` (walk the complete frames) and
  may defer :meth:`~FramedConnection.begin` (the hello ack) until it can.
* :class:`FramedListener` — the listening half: bind, read back port 0,
  and a close that lets every owed reply reach its socket first.
"""

from __future__ import annotations

import asyncio
import json
import os
import struct
from typing import Dict, Optional, Set

import numpy as np

from repro.serve import wire

#: per-connection receive buffer; the residue a drain leaves is always
#: smaller than one frame (< 4 KiB), so this never needs to grow
_RECV_BUFFER = 2**16

#: what a connection that does not open with the hello is told
_REFUSAL = b"! unsupported protocol: expected the binary wire v1 hello\n"

#: the constant head of every DECISION frame: u16 length, status
_DECISION_HEAD = struct.pack("<HB", wire.DECISION_FRAME_SIZE - 2, wire.STATUS_DECISION)


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
    def drain(self) -> None:
        """Consume every complete frame in ``_buffer[_start:_end]``."""
        raise NotImplementedError

    def hello_received(self) -> None:
        """The peer sent a valid hello; call :meth:`begin` once able to drain.

        The default is able at once. Otherwise the read side is held
        until :meth:`begin` runs, so a peer that does not wait for the
        ack cannot overrun the receive buffer.
        """
        self.begin()

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
    def buffer_updated(self, nbytes: int) -> None:
        """``nbytes`` more arrived: drain them, or check the hello first."""
        self._end += nbytes
        if self._ready:
            self.drain()
        else:
            self._check_hello()

    def _check_hello(self) -> None:
        """Accept :data:`wire.MAGIC`, refuse anything else with one line."""
        assert self.transport is not None
        magic = wire.MAGIC
        got = bytes(self._view[: min(self._end, len(magic))])
        if got != magic[: len(got)]:
            self.transport.write(_REFUSAL)
            self.transport.close()
        elif len(got) == len(magic):
            self._start += len(magic)
            self.hello_received()
            if not self._ready:
                # An empty asyncio receive view is fatal to the
                # transport, so nothing more is read until a drain can
                # make room.
                self.hold("hello")

    def begin(self) -> None:
        """Ack the hello and start draining (frames may already be buffered)."""
        assert self.transport is not None
        self.transport.write(wire.MAGIC)
        self._ready = True
        self.drain()
        self.release("hello")


class FramedListener:
    """A TCP endpoint accepting :class:`FramedConnection` subclasses.

    ``host``/``port`` are the bind address; port 0 picks a free port
    (read it back from :attr:`port` after :meth:`start` — this is how
    the loopback tests avoid port races).
    """

    #: the :class:`FramedConnection` subclass built per accepted socket
    connection_class = FramedConnection

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self.connections = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._protocols: Set[FramedConnection] = set()

    async def start(self) -> "FramedListener":
        """Bind and start accepting connections; resolves :attr:`port`.

        Raises :class:`BindError` if the address cannot be bound.
        """
        loop = asyncio.get_running_loop()
        try:
            self._server = await loop.create_server(
                lambda: self.connection_class(self), self.host, self.port
            )
        except OSError as error:
            reason = os.strerror(error.errno) if error.errno else error
            raise BindError(f"cannot bind {self.host}:{self.port}: {reason}") from error
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` foreground path)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight responses, close every transport.

        A pipelined client can have kilobytes of DECISION frames in a
        transport's write buffer at shutdown; ``transport.close()`` alone
        schedules a flush that dies with the event loop (``asyncio.run``
        tears it down as the coroutine returns), truncating the final
        batch. So: stop reading (no new decisions), wait up to
        ``drain_timeout`` seconds for every connection to be
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
        deadline = loop.time() + drain_timeout
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
