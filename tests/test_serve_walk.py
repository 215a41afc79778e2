"""One walk reads every endpoint's receive buffer.

``FramedConnection.drain`` (``serve/connection.py``) frames the bytes,
checks the keys, finds row stretches and cuts the batches for the server
and the cluster router alike. Each case here feeds both the same reads:
the server is held to a reference limiter's ``try_acquire_frames``
(``tests/test_serve_grouped.py``'s ``Twin``), the router to its
frame-road twin (``tests/test_serve_router_rows.py``'s ``Side``), and
the server's ``grouped`` and the router's ``rows`` counters say which
road a read took. The first cases also run live, through real sockets.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import AdmissionServer, connection, wire
from tests.conftest import binary_client
from tests.test_serve_cluster import make_limiter, start_cluster, teardown
from tests.test_serve_grouped import Twin, acquire, frames, width_keys
from tests.test_serve_router_rows import Side, cycled, frame_road_only

ROWS = connection._ROWS_MIN

#: 257 key bytes, 129 characters: valid, but only once decoded
LONG_KEY = "é".encode() * 128 + b"k"
STATS = wire.encode_command_binary(wire.OP_STATS)
PING = wire.encode_command_binary(wire.OP_PING)
NO_KEY = wire.ACQUIRE_HEADER.pack(2, wire.OP_ACQUIRE, 1)  # answered by an ERROR
#: a length prefix over MAX_FRAME: nothing after it can be framed
OVERSIZED = (wire.MAX_FRAME + 1).to_bytes(2, "little") + bytes(8)
TOO_LONG = f"frame exceeds {wire.MAX_FRAME} bytes"


def stretch(count: int = ROWS) -> bytes:
    """``count`` same-size ``ACQUIRE`` frames over four keys."""
    return frames(cycled(width_keys(6, 4), count))


def lone() -> bytes:
    return frames([b"a", b"bb", b"a", b"ccc"])


def mixed() -> bytes:
    """Lone frames, a row stretch, a long valid key, STATS, PING, a
    malformed frame and another stretch: every kind of frame in one read."""
    return (
        lone()
        + stretch()
        + acquire(LONG_KEY)
        + STATS
        + lone()
        + PING
        + NO_KEY
        + stretch()
    )


def both_roads(reads) -> Side:
    """Feed the same reads to a router and its frame-road twin; the router."""
    rows, frames_only = Side(), Side()
    for data in reads:
        rows.feed(data)
        with frame_road_only():
            frames_only.feed(data)
    assert rows.outcome() == frames_only.outcome()
    assert frames_only.router.rows == 0
    return rows


def closing_twin() -> tuple:
    """A server twin whose transport records a close."""
    twin = Twin("generalized", shards=8)
    closed = []
    twin.connection.transport.close = lambda: closed.append(True)
    return twin, closed


# ----------------------------------------------------------------------
# one read of everything, then a bad prefix
# ----------------------------------------------------------------------
def test_the_server_answers_every_frame_before_a_bad_prefix_then_closes():
    twin, closed = closing_twin()
    served, reference = twin.feed(mixed() + OVERSIZED)
    assert served == reference + [("E", TOO_LONG)]
    assert [item[0] for item in reference].count("D") == 8 + 2 * ROWS + 1
    assert closed == [True]
    twin.assert_same_state()
    assert twin.limiter.grouped == 2 * ROWS


def test_the_router_queues_every_frame_before_a_bad_prefix_then_closes():
    side = both_roads([mixed() + OVERSIZED])
    assert [item[0] for item in side.items] == ["B", "S", "B", "P", "E", "B", "E"]
    assert [item[2] for item in side.items if item[0] == "B"] == [4 + ROWS + 1, 4, ROWS]
    assert side.items[4] == ("E", b"ACQUIRE needs a key", False)
    assert side.items[-1] == ("E", TOO_LONG.encode(), True)
    assert "closing" in side.connection._holds
    assert side.router.rows == 2 * ROWS
    assert side.router.routed == 8 + 2 * ROWS + 1


@pytest.mark.parametrize("kind", ["server", "router"])
def test_live_replies_arrive_in_order_then_the_error_and_the_close(kind):
    async def scenario():
        if kind == "server":
            server = await AdmissionServer(make_limiter()).start()
            port, stop = server.port, server.close
        else:
            router, servers = await start_cluster(2)
            port = router.port

            async def stop():
                await teardown(router, servers)

        reader, writer = await binary_client(port)
        writer.write(mixed() + OVERSIZED)
        received = bytearray()
        while chunk := await asyncio.wait_for(reader.read(2**16), 10.0):
            received += chunk
        writer.close()
        await stop()
        return received

    received = asyncio.run(scenario())
    payloads, consumed = wire.split_frames(received)
    assert consumed == len(received)
    statuses = [payload[0] for payload in payloads]
    decision, error = wire.STATUS_DECISION, wire.STATUS_ERROR
    assert statuses == (
        [decision] * (4 + ROWS + 1)
        + [wire.STATUS_STATS]
        + [decision] * 4
        + [wire.STATUS_PONG, error]
        + [decision] * ROWS
        + [error]
    )
    assert payloads[-2 - ROWS][1:] == b"ACQUIRE needs a key"
    assert payloads[-1][1:] == TOO_LONG.encode()


# ----------------------------------------------------------------------
# a stretch across two reads, and the shortest stretch
# ----------------------------------------------------------------------
#: one 5-byte lone frame, then 2 * ROWS frames of 10 bytes
CUT_CHUNK = frames([b"x"]) + stretch(2 * ROWS) + PING
CUTS = [2, 5 + 10 * (ROWS - 1) + 3, 5 + 10 * ROWS, 5 + 10 * ROWS + 7]


def read_as_rows(cut: int) -> int:
    """Decisions a read holding ``ROWS`` whole stretch frames or more reads
    as rows, over the two reads ``CUT_CHUNK`` is cut into at ``cut``."""
    first = max(0, (cut - 5) // 10)
    return sum(count for count in (first, 2 * ROWS - first) if count >= ROWS)


@pytest.mark.parametrize("cut", CUTS)
def test_the_server_reads_a_stretch_cut_across_two_reads(cut):
    twin = Twin("generalized", shards=8)
    for data in (CUT_CHUNK[:cut], CUT_CHUNK[cut:]):
        served, reference = twin.feed(data)
        assert served == reference
    twin.assert_same_state()
    assert twin.limiter.grouped == read_as_rows(cut)


@pytest.mark.parametrize("cut", CUTS)
def test_the_router_reads_a_stretch_cut_across_two_reads(cut):
    side = both_roads([CUT_CHUNK[:cut], CUT_CHUNK[cut:]])
    assert side.router.rows == read_as_rows(cut)
    assert side.router.routed == 2 * ROWS + 1


@pytest.mark.parametrize("count", [ROWS - 1, ROWS])
def test_the_server_groups_a_stretch_from_rows_min_frames(count):
    twin = Twin("generalized", shards=8)
    served, reference = twin.feed(stretch(count))
    assert served == reference
    twin.assert_same_state()
    assert twin.limiter.grouped == (count if count == ROWS else 0)


@pytest.mark.parametrize("count", [ROWS - 1, ROWS])
def test_the_router_reads_rows_from_rows_min_frames(count):
    side = both_roads([stretch(count)])
    assert side.router.rows == (count if count == ROWS else 0)
    assert side.router.routed == count


# ----------------------------------------------------------------------
# a stretch the grouped road declines
# ----------------------------------------------------------------------
def test_a_declined_stretch_joins_the_pending_batch():
    """Two byte strings that decode to one key cannot be two groups: the
    stretch joins the lone frames ahead of it in one ``try_acquire_frames``
    call, as the reference decides them."""
    twin = Twin("generalized", shards=1)
    calls = []
    decide = twin.limiter.try_acquire_frames

    def counted(keys, useful=True, now=None):
        calls.append(len(keys))
        return decide(keys, useful, now)

    twin.limiter.try_acquire_frames = counted
    served, reference = twin.feed(lone() + frames([b"\xffk0", b"\xfek0"] * (ROWS // 2)))
    assert served == reference
    twin.assert_same_state()
    assert calls == [4 + ROWS]
    assert twin.limiter.grouped == 0
