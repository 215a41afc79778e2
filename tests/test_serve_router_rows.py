"""The router's row road routes exactly what the frame road would.

A stretch of at least ``_ROWS_MIN`` same-size ``ACQUIRE`` frames is read
by the cluster router as NumPy rows and grouped in one pass; every other
frame is filed one at a time. Both feed one send, so the roads must be
indistinguishable downstream. Each test here drives
``_RouterConnection.drain`` in-process — fake transports, fake worker
links — next to the same router with ``connection._ROWS_MIN`` patched above
any chunk (the frame road alone), and requires identical bytes written
to every worker link, identical queued scatter plans and identical
``groups`` / ``routed`` / ``forwarded`` counters. The ``rows`` counter
says which road a case took. The last test runs the row road live,
through real sockets and two worker servers.
"""

from __future__ import annotations

import asyncio
import random
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.experiments.scale import current_scale
from repro.serve import ManualClock, cluster, connection, wire
from repro.serve.cluster import _ROUTE_CACHE_MAX, ClusterRouter
from tests.conftest import binary_client
from tests.test_serve_cluster import (
    FakeTransport,
    fake_link,
    make_limiter,
    read_stats,
    start_cluster,
    teardown,
)

ROWS = connection._ROWS_MIN
WORKERS = ("w0", "w1", "w2")
EXAMPLES = 60 if current_scale().name == "ci" else 400


class Recorder(FakeTransport):
    """A fake transport that keeps everything written to it."""

    def __init__(self):
        super().__init__()
        self.written = bytearray()

    def write(self, data):
        self.written += data


@contextmanager
def frame_road_only():
    """No stretch is long enough for the row road while this is open."""
    saved = connection._ROWS_MIN
    connection._ROWS_MIN = 1 << 30
    try:
        yield
    finally:
        connection._ROWS_MIN = saved


class Side:
    """One router connection with a recording link per worker."""

    def __init__(self, dead=(), empty_ring=False, full_memo=False):
        self.router = ClusterRouter({name: ("127.0.0.1", 1) for name in WORKERS})
        self.connection = self.router.connection_class(self.router)
        self.connection.connection_made(Recorder())
        self.links = {}
        for name in WORKERS:
            link = fake_link()
            link.connection_made(Recorder())
            link.dead = name in dead
            self.links[name] = link
        self.router._links.update(self.links)
        self.connection._ready = True
        if empty_ring:
            for name in WORKERS:
                self.router.worker_failed(name)
        if full_memo:  # the next route miss drops the whole memo
            self.router._route_cache.update(
                (i.to_bytes(4, "little"), ("w0", b"")) for i in range(_ROUTE_CACHE_MAX)
            )
        self.items = []

    def feed(self, data: bytes) -> None:
        """One read: what the transport hands ``buffer_updated``."""
        view = self.connection.get_buffer(-1)
        view[: len(data)] = data
        self.connection.buffer_updated(len(data))
        queue = self.router._queue
        while not queue.empty():
            _, item = queue.get_nowait()
            if item[0] == "B":
                plan = [(name, at.tolist(), lone) for name, at, lone in item[1]]
                item = ("B", plan, item[2])
            self.items.append(item)

    def outcome(self):
        router = self.router
        return (
            {name: bytes(link.transport.written) for name, link in self.links.items()},
            self.items,
            (router.groups, router.routed, router.forwarded),
        )


def routed_both_ways(reads, **scenario):
    """Feed the same reads to a router and its frame-road twin; the router."""
    rows, frames = Side(**scenario), Side(**scenario)
    for data in reads:
        rows.feed(data)
        with frame_road_only():
            frames.feed(data)
    assert rows.outcome() == frames.outcome()
    assert frames.router.rows == 0
    return rows.router


def acquire(raw: bytes, useful: bool = True) -> bytes:
    """An ``ACQUIRE`` frame for raw key bytes (which need not be UTF-8)."""
    flags = wire.FLAG_USEFUL if useful else 0
    return wire.ACQUIRE_HEADER.pack(2 + len(raw), wire.OP_ACQUIRE, flags) + raw


def frames(raws, flags=lambda i: True) -> bytes:
    return b"".join(acquire(raw, flags(i)) for i, raw in enumerate(raws))


def width_keys(width: int, count: int, prefix: bytes = b"k") -> list:
    return [prefix + str(i).zfill(width - len(prefix)).encode() for i in range(count)]


STATS = wire.encode_command_binary(wire.OP_STATS)
PING = wire.encode_command_binary(wire.OP_PING)
NO_KEY = wire.ACQUIRE_HEADER.pack(2, wire.OP_ACQUIRE, 1)  # answered by an ERROR


def cycled(keys, count):
    return [keys[i % len(keys)] for i in range(count)]


def few_repeats(count):
    keys = width_keys(8, count)
    keys[count // 2] = keys[3]
    keys[-1] = keys[0]
    return keys


#: chunk -> decisions the row road reads in it
CHUNKS = {
    "repeat-heavy": (frames(cycled(width_keys(6, 32), 4 * ROWS)), 4 * ROWS),
    "all-distinct": (frames(width_keys(8, 3 * ROWS)), 3 * ROWS),
    "few-repeats": (frames(few_repeats(2 * ROWS)), 2 * ROWS),
    "mixed-flags": (
        frames(cycled(width_keys(3, 5), 2 * ROWS), lambda i: i % 3 != 0),
        2 * ROWS,
    ),
    # a stride change mid-run: two stretches, one batch
    "stride-change": (
        frames(cycled(width_keys(4, 8), ROWS) + cycled(width_keys(5, 8), ROWS)),
        2 * ROWS,
    ),
    # one size, then another, then the first again: one group per frame
    "stride-returns": (
        frames(
            cycled(width_keys(4, 8), ROWS)
            + cycled(width_keys(5, 8), 20)
            + cycled(width_keys(4, 8), ROWS)
        ),
        2 * ROWS,
    ),
    # frames before a run share its keys: one group per frame
    "lead-in": (frames(cycled(width_keys(4, 8), 20 + ROWS)), ROWS + 20),
    "barriers-in-a-run": (
        frames(cycled(width_keys(6, 9), ROWS))
        + STATS
        + frames(cycled(width_keys(6, 9), ROWS))
        + PING
        + frames(cycled(width_keys(6, 9), ROWS))
        + NO_KEY
        + frames(cycled(width_keys(6, 9), ROWS)),
        4 * ROWS,
    ),
    # payload 258 is the longest whose key (256 bytes) is valid as it lies
    "258-byte-frames": (frames(cycled(width_keys(256, 3), ROWS + 1)), ROWS + 1),
    # one byte more takes the frame road; 257 ASCII bytes is an ERROR each
    "259-byte-frames": (frames(cycled(width_keys(257, 3), ROWS + 1)), 0),
    "259-byte-valid-keys": (
        frames(cycled(["é".encode() * 128 + b"%d" % i for i in range(3)], ROWS)),
        0,
    ),
    # invalid UTF-8 that decodes to one key: two frames, one owner
    "invalid-utf8": (
        frames(cycled([b"\xffk0", b"\xfek0", b"k10"], 2 * ROWS)),
        2 * ROWS,
    ),
    # repro loadgen's names: two sizes, so no stretch is long enough
    "key-n": (frames([b"key-%d" % (i % 64) for i in range(4 * 64)]), 0),
    "short": (frames(width_keys(6, ROWS - 1)), 0),
}


@pytest.mark.parametrize("chunk, rows", CHUNKS.values(), ids=CHUNKS.keys())
def test_which_road_a_chunk_takes(chunk, rows):
    assert routed_both_ways([chunk]).rows == rows


@pytest.mark.parametrize("cut", [1, 7, 5 * ROWS, 5 * ROWS + 3, 10 * ROWS - 2])
def test_a_chunk_cut_mid_frame_across_two_reads(cut):
    chunk = frames(cycled(width_keys(6, 16), 2 * ROWS))  # 10-byte frames
    router = routed_both_ways([chunk[:cut], chunk[cut:]])
    assert router.routed == 2 * ROWS
    # a read holding ROWS whole frames or more takes the row road
    expected = sum(
        count for count in (cut // 10, 2 * ROWS - cut // 10) if count >= ROWS
    )
    assert router.rows == expected


@pytest.mark.parametrize(
    "scenario",
    [dict(dead=("w1",)), dict(empty_ring=True), dict(full_memo=True)],
    ids=["dead-link", "empty-ring", "memo-at-max"],
)
def test_the_roads_agree_on_a_sick_cluster(scenario):
    chunk = (
        frames(cycled(width_keys(6, 40), 3 * ROWS))
        + frames(width_keys(7, ROWS))
        + STATS
        + frames(few_repeats(ROWS))
    )
    router = routed_both_ways([chunk], **scenario)
    assert router.rows == 5 * ROWS


@pytest.fixture
def column_plans(monkeypatch):
    """The batches ``_send_rows`` planned from columns, counted."""
    planned = []
    send_rows = cluster._RouterConnection._send_rows

    def counted(self, rows):
        planned.append(len(rows))
        send_rows(self, rows)

    monkeypatch.setattr(cluster._RouterConnection, "_send_rows", counted)
    return planned


#: case -> (reads, scenario, decisions read as rows, batches planned
#: from columns)
LONE_STRETCHES = {
    # a void view keeps the NUL; an S dtype would strip it off each key
    "nul-last-key-byte": (
        [frames([key + b"\x00" for key in width_keys(7, 3 * ROWS)])],
        {},
        3 * ROWS,
        1,
    ),
    # a dead link is still on the ring: its share becomes REJECTs
    "dead-link-distinct": (
        [frames(width_keys(8, 2 * ROWS))],
        dict(dead=("w1",)),
        2 * ROWS,
        1,
    ),
    "dead-link-repeats": (
        [frames(cycled(width_keys(6, 40), 3 * ROWS))],
        dict(dead=("w1",)),
        3 * ROWS,
        1,
    ),
    # no worker left: every position is an orphan
    "empty-ring-repeats": (
        [frames(few_repeats(2 * ROWS))],
        dict(empty_ring=True),
        2 * ROWS,
        1,
    ),
    # the first memo miss drops the whole memo, mid-batch
    "memo-overflows-distinct": (
        [frames(width_keys(8, 2 * ROWS))],
        dict(full_memo=True),
        2 * ROWS,
        1,
    ),
    "memo-overflows-repeats": (
        [frames(cycled(width_keys(6, 40), 3 * ROWS))],
        dict(full_memo=True),
        3 * ROWS,
        1,
    ),
    # 205-byte bulk records, 19 to a frame: each worker's span two frames
    "bulk-records-span-frames": (
        [frames(cycled(width_keys(200, 60), 2 * ROWS))],
        {},
        2 * ROWS,
        1,
    ),
    # one connection's batches change shape: after repeats it sorts first
    "shapes-alternate": (
        [
            frames(cycled(width_keys(6, 40), 2 * ROWS)),
            frames(width_keys(6, 2 * ROWS)),
            frames(width_keys(6, 2 * ROWS, b"j")),
            frames(few_repeats(ROWS)),
            frames(width_keys(8, ROWS)),
        ],
        {},
        8 * ROWS,
        5,
    ),
    # a frame of another size joins the stretch's batch: filed as frames
    "stretch-then-other-size": (
        [frames(cycled(width_keys(6, 40), 2 * ROWS) + [b"another-size"])],
        {},
        2 * ROWS,
        0,
    ),
}


@pytest.mark.parametrize(
    "reads, scenario, rows, plans", LONE_STRETCHES.values(), ids=LONE_STRETCHES.keys()
)
def test_a_lone_stretch_is_planned_as_columns(
    reads, scenario, rows, plans, column_plans
):
    router = routed_both_ways(reads, **scenario)
    assert router.rows == rows
    assert len(column_plans) == plans


KEY_BYTES = [b"aa", b"bb", b"cc", "é".encode(), b"\xff\xfe", b"\xfe\xff", b"dd"]


@st.composite
def segments(draw):
    kind = draw(st.sampled_from(["repeats", "repeats", "distinct", "few", "barrier"]))
    if kind == "barrier":
        return draw(st.sampled_from([STATS, PING, NO_KEY, bytes((1, 0, 9))]))
    width = draw(st.integers(1, 3))
    count = draw(st.integers(1, 2 * ROWS + 40))
    if kind == "repeats":
        pool = draw(st.lists(st.sampled_from(KEY_BYTES), min_size=1, max_size=5))
        order = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
        raws = [pool[i % len(pool)] + b"-" * width for i in order]
    else:
        raws = [b"x" * width + i.to_bytes(2, "little") for i in range(count)]
        if kind == "few":
            for at in draw(st.lists(st.integers(0, count - 1), max_size=3)):
                raws[at] = raws[0]
    flags = draw(st.sampled_from(["useful", "useless", "mixed"]))
    return frames(
        raws, lambda i: flags == "useful" or (flags == "mixed" and i % 3 != 0)
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    scenario=st.sampled_from([{}, {}, dict(dead=("w0",)), dict(empty_ring=True)]),
    reads=st.lists(
        st.tuples(st.lists(segments(), min_size=1, max_size=5), st.floats(0, 1)),
        min_size=1,
        max_size=3,
    ),
)
def test_row_road_matches_the_frame_road(scenario, reads):
    chunks = []
    for parts, share in reads:  # each chunk in two reads, cut anywhere
        chunk = b"".join(parts)
        cut = int(share * len(chunk))
        chunks += [chunk[:cut], chunk[cut:]]
    router = routed_both_ways(chunks, **scenario)
    event("row road taken" if router.rows else "frame road only")
    assert router.rows <= router.routed


def test_a_live_cluster_decides_rows_as_one_limiter_would():
    """Pipelined fixed-width keys, enough of them for the row road: every
    key's decisions are what one limiter answers to its requests in
    turn, and the router says it read them as rows."""
    rng = random.Random(28)
    keys = [f"fixed{i:03d}" for i in range(24)]
    useful = {key: rng.random() < 0.7 for key in keys}
    sent = [rng.choice(keys) for _ in range(3 * ROWS)]
    sent += keys  # and every key at least once
    limiter = dict(strategy="generalized", spend_rate=3, capacity=6, initial_tokens=4)

    async def scenario():
        router, servers = await start_cluster(2, clock=ManualClock(), **limiter)
        reader, writer = session = await binary_client(router.port)
        writer.write(
            b"".join(wire.encode_request_binary(key, useful[key]) for key in sent)
        )
        replies = await reader.readexactly(len(sent) * wire.DECISION_FRAME_SIZE)
        writer.write(STATS)
        stats = await read_stats(reader)
        await teardown(router, servers, session)
        return replies, stats

    replies, stats = asyncio.run(scenario())
    assert stats["routed"] == len(sent) and stats["rows"] > 0
    assert stats["admitted"] + stats["rejected"] == len(sent)
    reference = make_limiter(clock=ManualClock(), **limiter)
    payloads, _ = wire.split_frames(bytearray(replies))
    per_key = {}
    for key, payload in zip(sent, payloads):
        per_key.setdefault(key, []).append(wire.decode_response_binary(payload, key)[1])
    assert any(d.admitted for ds in per_key.values() for d in ds)
    assert any(not d.admitted for ds in per_key.values() for d in ds)
    for key, decisions in per_key.items():
        assert decisions == [
            reference.try_acquire(key, useful[key]) for _ in decisions
        ], key
