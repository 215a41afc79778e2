"""Loopback tests for ``FramedLink``, the one wire client, and its users.

Every peer here is a hand-written ``asyncio.start_server`` handler, so
the client under test is the only ``FramedLink`` in the room.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ArrivalSpec
from repro.serve import Decision, fetch_stats, run_loadgen, wire
from repro.serve.connection import _REFUSAL, FramedLink, HelloError
from tests.test_serve_wire_binary import segmented

ADMIT = wire.encode_decision_binary(Decision(True, "", "reactive", 1))


@contextlib.asynccontextmanager
async def peer(handler, **kwargs):
    """Serve ``handler(reader, writer)`` on a loopback port (yielded).

    On exit every handler has run to its end and closed its side, so a
    client that left a connection open shows up as a timeout here.
    """
    handlers = set()

    async def tracked(reader, writer):
        handlers.add(asyncio.current_task())
        try:
            await handler(reader, writer)
        finally:
            writer.close()

    if "sock" not in kwargs:
        kwargs.update(host="127.0.0.1", port=0)
    server = await asyncio.start_server(tracked, **kwargs)
    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        server.close()
        await server.wait_closed()
        if handlers:
            _, unfinished = await asyncio.wait(handlers, timeout=5.0)
            assert not unfinished, "a client connection was left open"


async def echo_hello(reader, writer) -> None:
    writer.write(await reader.readexactly(len(wire.MAGIC)))


async def read_frame(reader) -> bytes:
    length = int.from_bytes(await reader.readexactly(2), "little")
    return await reader.readexactly(length)


async def until_closed(reader) -> None:
    """Discard what the client sends until it closes its side."""
    try:
        while await reader.read(2**16):
            pass
    except ConnectionError:
        pass


class SpyLink(FramedLink):
    """A link that remembers every instance ``connect`` built."""

    built: list = []

    def __init__(self, size: int):
        super().__init__(size)
        self.built.append(self)


# ----------------------------------------------------------------------
# (i) the connecting constructor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("refusal", [_REFUSAL, b""], ids=["refused", "closed"])
def test_connect_raises_the_hello_error_and_closes_the_link(refusal):
    """A peer that answers ``! unsupported…`` or hangs up before echoing."""

    async def scenario():
        async def handler(reader, writer):
            await reader.readexactly(len(wire.MAGIC))
            if refusal:
                writer.write(refusal)
                await until_closed(reader)  # the client must be the one to leave

        SpyLink.built.clear()
        async with peer(handler) as port:
            with pytest.raises(HelloError) as raised:
                await asyncio.wait_for(SpyLink.connect("127.0.0.1", port, 256), 5.0)
        assert not isinstance(raised.value, OSError)  # not "host unreachable"
        (link,) = SpyLink.built
        assert link.transport.is_closing()

    asyncio.run(scenario())


def test_connect_returns_a_link_past_the_hello():
    async def scenario():
        async def handler(reader, writer):
            await echo_hello(reader, writer)
            assert await read_frame(reader) == bytes((wire.OP_PING,))
            writer.write(wire.encode_status_binary(wire.STATUS_PONG))
            await until_closed(reader)

        async with peer(handler) as port:
            link = await FramedLink.connect("127.0.0.1", port, 256)
            link.transport.write(wire.encode_command_binary(wire.OP_PING))
            payload = await asyncio.wait_for(link.frame(), 5.0)
            link.close()
        return payload

    assert asyncio.run(scenario()) == bytes((wire.STATUS_PONG,))


# ----------------------------------------------------------------------
# (ii) the open-loop form of ``decisions``
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=40),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
    with_hello=st.booleans(),
    size=st.sampled_from((wire.DECISION_FRAME_SIZE, 40, 4096)),
)
def test_partial_decisions_survive_any_segmentation(count, cuts, with_hello, size):
    """Every record comes back once, in order, never a partial one —
    also when the hello echo and the first records share a segment (the
    null server answers exactly like that) and when the buffer is so
    small that the read side is held between records."""
    blob = wire.encode_decisions_binary(
        [Decision(i % 3 != 0, "k", "reactive", i) for i in range(count)]
    )

    async def scenario():
        async def handler(reader, writer):
            hello = await reader.readexactly(len(wire.MAGIC))
            if not with_hello:
                writer.write(hello)
                await writer.drain()
                await asyncio.sleep(0.002)
                hello = b""
            for piece in segmented(hello + blob, cuts):
                writer.write(piece)
                await writer.drain()
                await asyncio.sleep(0.002)  # let it travel as its own segment
            await until_closed(reader)

        async def read_all(link):
            # a returned view is good until the next await: copy it at once
            bursts = []
            taken = 0
            while taken < count:
                records = await link.decisions(count - taken, partial=True)
                assert 1 <= len(records) <= count - taken
                taken += len(records)
                bursts.append(records.tobytes())
            return bursts

        async with peer(handler) as port:
            link = await FramedLink.connect("127.0.0.1", port, size)
            bursts = await asyncio.wait_for(read_all(link), 10.0)
            assert link._start == link._end  # nothing left over
            link.close()
        return bursts

    bursts = asyncio.run(scenario())
    assert all(len(burst) % wire.DECISION_FRAME_SIZE == 0 for burst in bursts)
    assert b"".join(bursts) == blob


def test_exact_decisions_wait_for_the_whole_stride():
    """Without ``partial`` the same reader returns only once all of
    ``count`` are there — the router's contract."""

    async def scenario():
        async def handler(reader, writer):
            await echo_hello(reader, writer)
            for _ in range(5):
                writer.write(ADMIT)
                await writer.drain()
                await asyncio.sleep(0.002)
            await until_closed(reader)

        async def read_stride(link):
            return (await link.decisions(5)).tobytes()  # copied before any await

        async with peer(handler) as port:
            link = await FramedLink.connect("127.0.0.1", port, 4096)
            taken = await asyncio.wait_for(read_stride(link), 5.0)
            link.close()
        return taken

    assert asyncio.run(scenario()) == ADMIT * 5


# ----------------------------------------------------------------------
# (iii) loadgen: a record that is no DECISION fails the link
# ----------------------------------------------------------------------
@pytest.mark.parametrize("message", [b"no", b"x" * 40], ids=["short", "long"])
def test_loadgen_counts_everything_after_an_error_frame_as_errors(message):
    """A STATUS_ERROR frame after 8 DECISIONs: the link is closed (the
    peer never hangs up, so a client that kept waiting would hang) and
    the accounting is the one a mid-run disconnect gets."""

    async def scenario():
        async def handler(reader, writer):
            await echo_hello(reader, writer)
            for _ in range(8):
                await read_frame(reader)
                writer.write(ADMIT)
                await writer.drain()
            await read_frame(reader)
            writer.write(wire.encode_status_binary(wire.STATUS_ERROR, message))
            await until_closed(reader)

        async with peer(handler) as port:
            spec = ArrivalSpec(pattern="uniform", rate=200.0)
            return await asyncio.wait_for(
                run_loadgen(
                    "127.0.0.1", port, spec, duration=0.5, connections=1, keys=2
                ),
                10.0,
            )

    report = asyncio.run(scenario())
    assert report.offered == 99
    assert report.summary["requests"] == 8
    assert report.summary["admitted"] == 8
    assert report.errors == report.offered - 8


def test_loadgen_reports_a_refused_hello_as_errors():
    async def scenario():
        async def handler(reader, writer):
            await reader.readexactly(len(wire.MAGIC))
            writer.write(_REFUSAL)

        async with peer(handler) as port:
            spec = ArrivalSpec(pattern="uniform", rate=200.0)
            return await asyncio.wait_for(
                run_loadgen("127.0.0.1", port, spec, duration=0.2, connections=2),
                10.0,
            )

    report = asyncio.run(scenario())
    assert report.offered > 0
    assert report.errors == report.offered
    assert report.summary["requests"] == 0


# ----------------------------------------------------------------------
# (iv) fetch_stats
# ----------------------------------------------------------------------
def stats_peer(reply: bytes):
    async def handler(reader, writer):
        await echo_hello(reader, writer)
        assert await read_frame(reader) == bytes((wire.OP_STATS,))
        writer.write(reply)

    return handler


def fetch_from(handler):
    async def scenario():
        async with peer(handler) as port:
            return await asyncio.wait_for(fetch_stats("127.0.0.1", port), 5.0)

    return asyncio.run(scenario())


def test_fetch_stats_returns_the_document():
    document = {"admitted": 3, "rejected": 1}
    body = json.dumps(document).encode()
    reply = wire.encode_status_binary(wire.STATUS_STATS, body)
    assert fetch_from(stats_peer(reply)) == document


@pytest.mark.parametrize(
    "reply",
    [
        (100).to_bytes(2, "little") + bytes((wire.STATUS_STATS,)) + b'{"admit',
        wire.encode_status_binary(wire.STATUS_PONG),
        wire.encode_status_binary(wire.STATUS_ERROR, b"no stats here"),
    ],
    ids=["closed-mid-frame", "pong", "error"],
)
def test_fetch_stats_raises_value_error_on_a_protocol_mismatch(reply):
    with pytest.raises(ValueError):
        fetch_from(stats_peer(reply))


def test_fetch_stats_raises_value_error_on_a_refused_hello():
    async def handler(reader, writer):
        await reader.readexactly(len(wire.MAGIC))
        writer.write(_REFUSAL)

    with pytest.raises(ValueError):
        fetch_from(handler)


def test_fetch_stats_raises_os_error_when_nobody_listens():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(OSError):
        asyncio.run(fetch_stats("127.0.0.1", port))


# ----------------------------------------------------------------------
# (v) write-side backpressure
# ----------------------------------------------------------------------
def test_loadgen_writer_waits_while_the_peer_does_not_read(monkeypatch):
    """A peer that stops reading backs the transport up to its high-water
    mark; the writer then waits on the link instead of queueing the rest
    of the schedule (here ~2 MB) in the transport's buffer."""
    links = []
    connection_made = FramedLink.connection_made

    def small_send_buffer(self, transport):
        sock = transport.get_extra_info("socket")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        links.append(self)
        connection_made(self, transport)

    monkeypatch.setattr(FramedLink, "connection_made", small_send_buffer)

    async def scenario():
        release = asyncio.Event()

        async def handler(reader, writer):
            await echo_hello(reader, writer)
            await release.wait()  # reads nothing more

        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        async with peer(handler, sock=listener, limit=1024) as port:
            spec = ArrivalSpec(pattern="uniform", rate=5000.0)
            run = asyncio.ensure_future(
                run_loadgen(
                    "127.0.0.1",
                    port,
                    spec,
                    duration=2.0,
                    connections=1,
                    keys=4,
                    key_prefix="k" * 200,
                )
            )
            for _ in range(1000):  # ~64 KiB at ~1 MB/s: well under a second
                await asyncio.sleep(0.01)
                if links and not links[0]._writable.is_set():
                    break
            else:
                pytest.fail("the transport never asked the writer to pause")
            transport = links[0].transport
            high = transport.get_write_buffer_limits()[1]
            peak = 0
            for _ in range(30):
                await asyncio.sleep(0.01)
                assert not links[0]._writable.is_set()
                peak = max(peak, transport.get_write_buffer_size())
            release.set()
            report = await asyncio.wait_for(run, 10.0)
        return high, peak, report

    high, peak, report = asyncio.run(scenario())
    assert high <= peak < 2 * high
    assert report.summary["requests"] == 0
    assert report.errors == report.offered
