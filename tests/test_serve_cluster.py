"""The multi-process limiter cluster, tested in-process.

The router and the workers are plain asyncio servers, so everything but
the actual ``fork`` can run inside one event loop: real sockets, the
real binary protocol, the real bulk fan-out and reorder path — with
worker "death" staged by closing a worker server under the router. The
tests at the bottom fork real workers: one kills an idle worker process
under the router and times the remap, others run the actual ``repro
serve`` entry point, with and without ``--workers 2``, to its summary
line: at the end of ``--duration``, or on SIGTERM or SIGINT.

The load-bearing claims:

* response order is the request order, across keys, workers and frame
  kinds (DECISION runs, STATS, PING, errors interleave correctly);
* cluster STATS aggregates the per-worker counters;
* killing a worker remaps only its keys, synthesizes rejects for the
  in-flight tail, and — with ``--cold-start`` workers — keeps the
  paper's §3.4 burst bound intact *through* the failover, which the
  same :class:`~repro.core.ratelimit.RateLimitAuditor` the simulation
  uses verifies post-hoc.
"""

from __future__ import annotations

import asyncio
import errno
import json
import multiprocessing
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.ratelimit import RateLimitAuditor
from repro.serve import (
    AdmissionServer,
    ManualClock,
    ServeConfig,
    TokenAccountLimiter,
    wire,
)
from repro.serve.cluster import (
    ClusterRouter,
    _WorkerLink,
    spawn_worker,
    watch_workers,
)
from repro.serve.connection import _RECV_BUFFER, BindError
from repro.serve.limiter import Decision
from tests.conftest import binary_client as binary_session


def make_limiter(**overrides) -> TokenAccountLimiter:
    kwargs = dict(
        strategy="simple", capacity=3, period=50.0, shards=2, seed=1
    )
    kwargs.update(overrides)
    return TokenAccountLimiter(**kwargs)


async def start_cluster(workers: int = 2, **limiter_overrides):
    """``workers`` in-process worker servers behind one router."""
    servers = []
    addresses = {}
    for index in range(workers):
        limiter = make_limiter(**limiter_overrides)
        server = await AdmissionServer(limiter, host="127.0.0.1", port=0).start()
        servers.append(server)
        addresses[f"w{index}"] = ("127.0.0.1", server.port)
    router = await ClusterRouter(addresses, host="127.0.0.1", port=0).start()
    return router, servers


async def start_endpoint(kind: str):
    """A lone ``"server"`` or a 2-worker ``"router"``: ``(port, close)``."""
    if kind == "server":
        server = await AdmissionServer(make_limiter(), host="127.0.0.1").start()
        return server.port, server.close
    router, servers = await start_cluster(2)
    return router.port, lambda: teardown(router, servers)


async def acquire_many(reader, writer, keys, useful: bool = True):
    """Pipeline ACQUIREs for ``keys`` and collect the ordered decisions."""
    writer.write(
        b"".join(wire.encode_request_binary(key, useful) for key in keys)
    )
    await writer.drain()
    decisions = []
    for key in keys:
        frame = await reader.readexactly(wire.DECISION_FRAME_SIZE)
        status, decision = wire.decode_response_binary(frame[2:], key=key)
        assert status == wire.STATUS_DECISION
        decisions.append(decision)
    return decisions


async def read_stats(reader) -> dict:
    """The STATS reply frame that is next on the stream."""
    header = await reader.readexactly(2)
    length = header[0] | (header[1] << 8)
    payload = await reader.readexactly(length)
    assert payload[0] == wire.STATUS_STATS
    return json.loads(payload[1:])


async def fetch_cluster_stats(reader, writer) -> dict:
    writer.write(wire.encode_command_binary(wire.OP_STATS))
    await writer.drain()
    return await read_stats(reader)


async def teardown(router, servers, *connections):
    for _, writer in connections:
        writer.close()
    await router.close()
    for server in servers:
        await server.close()


# ----------------------------------------------------------------------
# RUN expansion: the router's client-facing frame synthesis
# ----------------------------------------------------------------------
def sequential_frames(reason, admits, rejects, balance, retry) -> bytes:
    """What a worker answers to ``admits + rejects`` plain ACQUIREs: one
    DECISION frame per admit, then one reject frame ``rejects`` times."""
    pack = wire.DECISION_STRUCT.pack
    body = wire.DECISION_FRAME_SIZE - 2
    admitted = b"".join(
        pack(body, wire.STATUS_DECISION, 1, reason, balance - 1 - spent, 0.0)
        for spent in range(admits)
    )
    reject = Decision(False, "k", "exhausted", balance - admits, retry)
    return admitted + wire.encode_decision_binary(reject) * rejects


def run_stream(runs) -> bytes:
    """The RUN frames of ``(reason code, admits, rejects, balance, retry)``."""
    return b"".join(
        wire.encode_run_binary(wire.REASON_NAMES[reason], *counts_balance_retry)
        for reason, *counts_balance_retry in runs
    )


run_records = st.tuples(
    st.sampled_from(sorted(wire.REASON_CODES.values())),
    st.sampled_from([0, 1, 2, 7, 65535]) | st.integers(0, 300),  # admits
    st.sampled_from([0, 1, 2, 7, 65535]) | st.integers(0, 300),  # rejects
    st.integers(-(2**20), 2**20),  # pre-spend balance (overdraft goes negative)
    st.floats(0.0, 1e6, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(run_records, max_size=12))
def test_expand_runs_matches_per_decision_encoding(runs):
    """Expanding RUN records as columns must produce byte-identical
    frames to what the worker would have sent, decision by decision."""
    records = np.frombuffer(run_stream(runs), dtype=wire.RUN_DTYPE)
    expected = b"".join(sequential_frames(*run) for run in runs)
    assert wire.expand_runs(records).tobytes() == expected


class FakeTransport:
    """What a link needs of its transport, with the read side recorded."""

    def __init__(self):
        self.paused = False
        self.holds = 0

    def pause_reading(self):
        assert not self.paused
        self.paused = True
        self.holds += 1

    def resume_reading(self):
        assert self.paused
        self.paused = False

    def close(self):
        pass


def fake_link() -> _WorkerLink:
    link = _WorkerLink()
    link.connection_made(FakeTransport())
    return link


async def deliver(link, stream: bytes, chunk: int, eof: bool = False) -> None:
    """Hand ``stream`` to the link the way a transport does — at most
    ``chunk`` bytes per wake-up through ``get_buffer`` /
    ``buffer_updated``, nothing while the read side is held."""
    offset = 0
    while offset < len(stream):
        if link.transport.paused:
            await asyncio.sleep(0)
            continue
        view = link.get_buffer(-1)
        assert len(view), "an empty receive view is fatal to an asyncio transport"
        piece = stream[offset : offset + min(chunk, len(view))]
        view[: len(piece)] = piece
        link.buffer_updated(len(piece))
        offset += len(piece)
        await asyncio.sleep(0)
    if eof:
        link.connection_lost(None)


def decision_stream(count: int) -> bytes:
    return wire.encode_decisions_binary(
        [Decision(i % 3 != 0, "k", "reactive", i) for i in range(count)]
    )


@pytest.mark.parametrize("chunk", [1, 17, 19, 20, 4096])
def test_link_cuts_the_reply_stream_the_same_however_it_arrives(chunk):
    """One link's replies to batch 1 (lone DECISION records, then RUNs),
    a STATS document and batch 2 are in flight together: each reader
    takes exactly its own share, whatever the sizes of the reads that
    deliver them."""
    lone = decision_stream(4)
    first = [(1, 3, 2, 5, 7.25), (1, 1, 0, 9, 0.0), (3, 0, 1, 0, 1.5)]  # 7 decisions
    second = [(2, 1, 0, 4, 0.0)] * 5  # a per-decision fallback group
    stats = wire.encode_status_binary(wire.STATUS_STATS, b'{"admitted": 10}')
    stream = lone + run_stream(first) + stats + run_stream(second)

    async def scenario():
        link = fake_link()
        feeder = asyncio.get_running_loop().create_task(
            deliver(link, stream, chunk, eof=True)
        )
        taken = (
            (await link.decisions(4)).tobytes(),
            (await link.runs(7)).tobytes(),
            await link.frame(),
            (await link.runs(5)).tobytes(),
        )
        await feeder
        for owed in (link.runs(1), link.decisions(1)):
            with pytest.raises(ConnectionError):  # EOF with a decision still owed
                await owed
        return taken

    assert asyncio.run(scenario()) == (
        lone,
        run_stream(first),
        stats[2:],
        run_stream(second),
    )


@pytest.mark.parametrize(
    "stream",
    [
        run_stream([(1, 2, 0, 5, 0.0), (1, 2, 0, 3, 0.0)]),  # 4 decisions for 3
        wire.encode_decisions_binary([Decision(True, "k", "reactive", 1)] * 3),
        wire.encode_status_binary(wire.STATUS_ERROR, b"empty bulk frame"),  # < 20 B
        run_stream([(1, 1, 0, 5, 0.0), (3, 0, 0, 4, 0.0), (1, 1, 0, 4, 0.0)]),
    ],
    ids=["overshoot", "decision-frames", "short-error-frame", "empty-run"],
)
def test_link_refuses_a_reply_stream_that_does_not_line_up(stream):
    async def scenario():
        link = fake_link()
        await deliver(link, stream, 4096)  # no EOF: the refusal must not wait for more
        with pytest.raises(ConnectionError):
            await asyncio.wait_for(link.runs(3), timeout=5.0)

    asyncio.run(scenario())


#: reply streams that cannot be the 3 DECISION records a link is owed
NOT_DECISIONS = {
    "run-frame": decision_stream(1) + run_stream([(1, 2, 0, 5, 0.0)]),
    "short-error-frame": wire.encode_status_binary(wire.STATUS_ERROR, b"no"),
    "eof-mid-record": decision_stream(3)[:-5],
}


@pytest.mark.parametrize("name", sorted(NOT_DECISIONS))
def test_link_refuses_anything_but_the_decisions_it_is_owed(name):
    async def scenario():
        link = fake_link()
        await deliver(link, NOT_DECISIONS[name], 4096, eof=name == "eof-mid-record")
        with pytest.raises(ConnectionError):
            await asyncio.wait_for(link.decisions(3), timeout=5.0)

    asyncio.run(scenario())


@pytest.mark.parametrize("name", sorted(NOT_DECISIONS))
def test_router_rejects_the_share_of_a_worker_that_answers_out_of_line(name):
    """Through a live router: a worker whose reply to forwarded frames
    is not DECISION records is dropped, and its share of the batch —
    only its share — comes back as synthesized rejects, in order."""

    class BadWorker(asyncio.Protocol):
        def connection_made(self, transport):
            self.transport = transport
            self.greeted = False

        def data_received(self, data):
            if not self.greeted:
                self.greeted = True
                self.transport.write(wire.MAGIC)
            else:
                self.transport.write(NOT_DECISIONS[name])
                if name == "eof-mid-record":
                    self.transport.close()

    async def scenario():
        loop = asyncio.get_running_loop()
        bad = await loop.create_server(BadWorker, "127.0.0.1", 0)
        good = await AdmissionServer(make_limiter(), host="127.0.0.1").start()
        router = await ClusterRouter(
            {
                "w0": ("127.0.0.1", bad.sockets[0].getsockname()[1]),
                "w1": ("127.0.0.1", good.port),
            }
        ).start()
        keys = [f"k{i}" for i in range(40)]
        owners = [router._ring.owner(key) for key in keys]
        session = await binary_session(router.port)
        decisions = await asyncio.wait_for(acquire_many(*session, keys), timeout=5.0)
        remaps = router.remaps
        await teardown(router, [good], session)
        bad.close()
        await bad.wait_closed()
        return owners, decisions, remaps

    owners, decisions, remaps = asyncio.run(scenario())
    assert {"w0", "w1"} == set(owners)
    assert remaps == 1
    for owner, decision in zip(owners, decisions):
        if owner == "w0":
            assert (decision.admitted, decision.reason) == (False, "exhausted")
            assert decision.balance == 0 and decision.retry_after == 0.0
        else:
            assert decision.admitted and decision.balance == 2


def test_link_holds_the_read_side_while_its_buffer_is_full():
    """More replies in flight than the link buffer holds: the read side
    is held when the buffer fills and released once a reader consumes,
    asyncio is never handed an empty view (``deliver`` asserts it), and
    the records read across the hold are the ones fed."""
    link = fake_link()
    # the worst batch fits by construction: a reader waits for one
    # batch's records contiguously, so this is what keeps a hold from
    # ever being a deadlock
    assert len(link._buffer) >= (
        (_RECV_BUFFER // 5) * wire.RUN_FRAME_SIZE + wire.MAX_FRAME + 2
    )
    batches = 2 * len(link._buffer) // (4000 * wire.RUN_FRAME_SIZE) + 1
    lone = decision_stream(1000)
    runs = run_stream([(1, 1, 0, i, 0.0) for i in range(4000)])

    async def scenario():
        feeder = asyncio.get_running_loop().create_task(
            deliver(link, (lone + runs) * batches, 2**16)
        )
        while not link.transport.paused:  # nobody reads: the buffer fills
            await asyncio.sleep(0)
        assert link._end - link._start == len(link._buffer)
        taken = []
        for _ in range(batches):
            taken.append((await link.decisions(1000)).tobytes())
            taken.append((await link.runs(4000)).tobytes())
        await asyncio.wait_for(feeder, timeout=5.0)
        return taken

    assert asyncio.run(scenario()) == [lone, runs] * batches
    assert link.transport.holds >= 1 and not link.transport.paused


# ----------------------------------------------------------------------
# routing, ordering, aggregation
# ----------------------------------------------------------------------
def test_cluster_orders_pipelined_decisions_across_keys():
    async def scenario():
        router, servers = await start_cluster(2)
        session = await binary_session(router.port)
        # 6 keys x 5 requests, interleaved: per key the responses must
        # be 3 admits with descending balances then 2 rejects, and the
        # stream must be in exact request order
        keys = [f"k{i % 6}" for i in range(30)]
        decisions = await acquire_many(*session, keys)
        await teardown(router, servers, session)
        return keys, decisions

    keys, decisions = asyncio.run(scenario())
    per_key = {}
    for key, decision in zip(keys, decisions):
        per_key.setdefault(key, []).append(decision)
    assert set(per_key) == {f"k{i}" for i in range(6)}
    for sequence in per_key.values():
        assert [d.admitted for d in sequence] == [True] * 3 + [False] * 2
        assert [d.balance for d in sequence] == [2, 1, 0, 0, 0]
        assert all(d.retry_after > 0 for d in sequence if not d.admitted)


def test_cluster_keys_spread_over_both_workers():
    async def scenario():
        router, servers = await start_cluster(2)
        session = await binary_session(router.port)
        keys = [f"key{i}" for i in range(64)]
        await acquire_many(*session, keys)
        owners = {key: router._ring.owner(key) for key in keys}
        per_worker = [server.limiter.admitted for server in servers]
        stats = await fetch_cluster_stats(*session)
        await teardown(router, servers, session)
        return owners, per_worker, stats

    owners, per_worker, stats = asyncio.run(scenario())
    # no key repeats, so every request travelled as its own ACQUIRE frame
    assert stats["forwarded"] == stats["routed"] == stats["groups"] == len(owners)
    # the ring split the key space and each worker decided its share
    assert set(owners.values()) == {"w0", "w1"}
    counts = {
        name: sum(1 for owner in owners.values() if owner == name)
        for name in ("w0", "w1")
    }
    assert sorted(per_worker) == sorted(counts.values())


def test_cluster_aggregates_stats_and_answers_ping():
    async def scenario():
        router, servers = await start_cluster(2)
        session = await binary_session(router.port)
        reader, writer = session
        await acquire_many(reader, writer, [f"k{i % 4}" for i in range(20)])
        stats = await fetch_cluster_stats(reader, writer)
        writer.write(wire.encode_command_binary(wire.OP_PING))
        await writer.drain()
        pong = await reader.readexactly(3)
        await teardown(router, servers, session)
        return stats, pong

    stats, pong = asyncio.run(scenario())
    # 4 keys x 5 requests against C=3: 12 admits, 8 rejects, summed
    # across the two workers
    assert stats["admitted"] == 12 and stats["rejected"] == 8
    assert stats["keys"] == 4
    assert stats["workers"] == 2 and stats["remaps"] == 0
    assert stats["connections"] == 1
    assert stats["worker_connections"] == 2  # one link per worker
    # the 20 pipelined requests were fanned out as one group per key:
    # a coalescing factor routed / groups of 5
    assert stats["routed"] == 20 and stats["groups"] == 4
    assert stats["forwarded"] == 0  # ... and none travelled alone
    assert pong[2] == wire.STATUS_PONG


def test_cluster_mixed_usefulness_flags_stay_per_request():
    async def scenario():
        # generalized from balance 3 at A=3: useless is rejected where
        # useful is admitted, so flag mixups would flip outcomes
        router, servers = await start_cluster(
            2,
            strategy="generalized",
            spend_rate=3,
            capacity=6,
            initial_tokens=3,
        )
        session = await binary_session(router.port)
        reader, writer = session
        writer.write(
            wire.encode_request_binary("k", useful=False)
            + wire.encode_request_binary("k", useful=True)
            + wire.encode_request_binary("k", useful=False)
        )
        await writer.drain()
        frames = [
            await reader.readexactly(wire.DECISION_FRAME_SIZE)
            for _ in range(3)
        ]
        await teardown(router, servers, session)
        return [
            wire.decode_response_binary(frame[2:], key="k")[1]
            for frame in frames
        ]

    useless, useful, useless_again = asyncio.run(scenario())
    assert not useless.admitted
    assert useful.admitted
    assert not useless_again.admitted


@pytest.mark.parametrize(
    "limiter",
    [
        dict(strategy="simple", capacity=3),
        dict(strategy="generalized", spend_rate=3, capacity=6, initial_tokens=4),
    ],
    ids=["simple", "generalized"],
)
def test_cluster_decides_each_key_of_a_mixed_batch_as_one_limiter_would(limiter):
    """One pipelined chunk interleaving keys sent once, keys repeated
    2-40 times and a STATS barrier: whichever road a request takes
    (forwarded frame or bulk group), every key's decisions are what a
    fresh limiter answers to that key's requests one after another.
    A key keeps one flag value, so its requests are one group per batch."""
    rng = random.Random(21)
    counts = {f"lone{i}": 1 for i in range(40)}
    counts.update({f"hot{i}": rng.randint(2, 40) for i in range(12)})
    useful = {key: rng.random() < 0.7 for key in counts}
    halves = []
    for _ in range(2):  # the keys lone before the barrier repeat after it
        half = [key for key, count in counts.items() for _ in range(count)]
        rng.shuffle(half)
        halves.append(half)
        counts = {key: 3 if count == 1 else 1 for key, count in counts.items()}
    keys = halves[0] + halves[1]
    chunk = b"".join(
        [wire.encode_request_binary(key, useful[key]) for key in halves[0]]
        + [wire.encode_command_binary(wire.OP_STATS)]
        + [wire.encode_request_binary(key, useful[key]) for key in halves[1]]
    )
    assert len(chunk) < 2**16  # one receive buffer: two batches and a barrier

    async def scenario():
        router, servers = await start_cluster(2, clock=ManualClock(), **limiter)
        reader, writer = session = await binary_session(router.port)
        writer.write(chunk)
        size = wire.DECISION_FRAME_SIZE
        replies = await reader.readexactly(len(halves[0]) * size)
        barrier = await read_stats(reader)
        replies += await reader.readexactly(len(halves[1]) * size)
        stats = await fetch_cluster_stats(reader, writer)
        await teardown(router, servers, session)
        return replies, barrier, stats

    replies, barrier, stats = asyncio.run(scenario())
    # the workers met the barrier where it was sent, between the halves
    assert barrier["admitted"] + barrier["rejected"] == len(halves[0])
    assert stats["routed"] == len(keys)
    assert stats["admitted"] + stats["rejected"] == len(keys)
    frames, _ = wire.split_frames(bytearray(replies))
    reference = make_limiter(clock=ManualClock(), **limiter)
    per_key = {}
    for key, frame in zip(keys, frames):
        per_key.setdefault(key, []).append(wire.decode_response_binary(frame, key)[1])
    assert any(d.admitted for ds in per_key.values() for d in ds)
    assert any(not d.admitted for ds in per_key.values() for d in ds)
    for key, decisions in per_key.items():
        assert decisions == [
            reference.try_acquire(key, useful[key]) for _ in decisions
        ], key


def test_cluster_answers_errors_in_order_and_survives_them():
    async def scenario():
        router, servers = await start_cluster(2)
        session = await binary_session(router.port)
        reader, writer = session
        # valid, malformed (empty key), valid: the error frame must
        # land between the two decisions and the session must survive
        empty_key = wire.ACQUIRE_HEADER.pack(2, wire.OP_ACQUIRE, 1)
        writer.write(
            wire.encode_request_binary("a")
            + empty_key
            + wire.encode_request_binary("a")
        )
        await writer.drain()
        first = await reader.readexactly(wire.DECISION_FRAME_SIZE)
        header = await reader.readexactly(2)
        length = header[0] | (header[1] << 8)
        error = await reader.readexactly(length)
        second = await reader.readexactly(wire.DECISION_FRAME_SIZE)
        await teardown(router, servers, session)
        return first, error, second

    first, error, second = asyncio.run(scenario())
    assert first[2] == wire.STATUS_DECISION
    assert error[0] == wire.STATUS_ERROR
    assert b"key" in error[1:]
    assert second[2] == wire.STATUS_DECISION
    # both valid requests were decided (balances 2 then 1)
    assert wire.decode_response_binary(second[2:], key="a")[1].balance == 1


# ----------------------------------------------------------------------
# one link per worker, shared by every client
# ----------------------------------------------------------------------
def test_clients_share_one_link_per_worker():
    """Three clients pipeline interleaved requests on overlapping keys:
    each gets its replies in its own request order, each key's admits are
    what one limiter grants it, and the workers see one connection each."""
    shared = [f"shared{i}" for i in range(6)]
    rng = random.Random(5)
    rounds = []
    for _ in range(4):
        per_client = []
        for index in range(3):
            keys = shared * 2 + [f"own{index}-{i}" for i in range(4)] * 2
            rng.shuffle(keys)
            per_client.append(keys)
        rounds.append(per_client)

    async def scenario():
        router, servers = await start_cluster(2, clock=ManualClock())
        sessions = [await binary_session(router.port) for _ in range(3)]
        answered = [[] for _ in sessions]
        for per_client in rounds:
            replies = await asyncio.gather(
                *(
                    acquire_many(*session, keys)
                    for session, keys in zip(sessions, per_client)
                )
            )
            for index, decisions in enumerate(replies):
                answered[index] += zip(per_client[index], decisions)
        stats = await fetch_cluster_stats(*sessions[0])
        links = len(router._links)
        await teardown(router, servers, *sessions)
        return answered, stats, links

    answered, stats, links = asyncio.run(scenario())
    assert links == 2
    assert stats["connections"] == 3
    assert stats["worker_connections"] == 2  # not one per client per worker
    requests = sum(len(keys) for per_client in rounds for keys in per_client)
    assert stats["admitted"] + stats["rejected"] == requests
    # a client's own keys: its replies in its own request order, exactly
    for index, pairs in enumerate(answered):
        for i in range(4):
            own = [d for key, d in pairs if key == f"own{index}-{i}"]
            assert [d.admitted for d in own] == [True] * 3 + [False] * 5
            assert [d.balance for d in own[:3]] == [2, 1, 0]
    # a shared key: one account, whichever clients asked, in each one's order
    reference = make_limiter(clock=ManualClock())
    for key in shared:
        admits = []
        for pairs in answered:
            mine = [d for k, d in pairs if k == key]
            flags = [d.admitted for d in mine]
            assert flags == sorted(flags, reverse=True)
            admits += [d.balance for d in mine if d.admitted]
        asked = sum(k == key for pairs in answered for k, _ in pairs)
        granted = sum(reference.try_acquire(key).admitted for _ in range(asked))
        assert sorted(admits, reverse=True) == [2, 1, 0][:granted]


@pytest.mark.parametrize("leave", ["close", "failed-write"])
def test_replies_owed_to_a_client_that_is_gone_are_read_and_dropped(leave):
    """A client leaves with batches in flight (it closes, or writing to it
    fails): its replies are still read off the shared links and dropped,
    so another client's replies are complete and correct."""
    stay = [f"stay{i % 8}" for i in range(40)]

    async def scenario():
        router, servers = await start_cluster(2, clock=ManualClock())
        gone = await binary_session(router.port)
        (connection,) = router._protocols
        owed_when_gone = []
        lost = connection.connection_lost

        def connection_lost(exc):
            owed_when_gone.append(connection._outstanding)
            lost(exc)

        def write(data):
            owed_when_gone.append(len(data) // wire.DECISION_FRAME_SIZE)
            raise ConnectionResetError("the client's socket failed")

        if leave == "close":
            connection.connection_lost = connection_lost
        else:
            connection.transport.write = write
        stayer = await binary_session(router.port)
        gone[1].write(
            b"".join(wire.encode_request_binary(f"gone{i % 16}") for i in range(3000))
        )
        if leave == "close":
            gone[1].close()
        while connection.transport is not None:
            await asyncio.sleep(0.001)
        decisions = await asyncio.wait_for(acquire_many(*stayer, stay), timeout=10.0)
        responding = not router._responder.done()
        await teardown(router, servers, gone, stayer)
        return owed_when_gone, decisions, responding

    owed_when_gone, decisions, responding = asyncio.run(scenario())
    assert owed_when_gone and owed_when_gone[0] > 0  # it left with replies owed
    assert responding
    # 8 keys round-robin at C=3: request i is its key's (i // 8)-th
    assert [d.admitted for d in decisions] == [i < 24 for i in range(40)]
    assert [d.balance for d in decisions[:24]] == [2 - i // 8 for i in range(24)]


# ----------------------------------------------------------------------
# the hello: identical on the server and the router
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["server", "router"])
def test_non_hello_first_bytes_get_one_error_line_and_a_close(kind):
    async def scenario():
        port, close = await start_endpoint(kind)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"A key\n")
        await writer.drain()
        line = await reader.readline()
        closed = await reader.read()
        writer.close()
        await close()
        return line, closed

    line, closed = asyncio.run(scenario())
    assert line.startswith(b"!")
    assert b"binary" in line
    assert closed == b""


@pytest.mark.parametrize("kind", ["server", "router"])
def test_frames_flooded_behind_the_hello_are_all_answered_in_order(kind):
    """A client that does not wait for the hello ack loses nothing.

    The regression: the router buffered undrained until its worker
    links were up, so more than one receive buffer of early frames hit
    asyncio's fatal empty ``get_buffer()`` view and reset the client.
    """
    requests = 8000
    keys = [f"flood-{i % 8}" for i in range(requests)]
    flood = wire.MAGIC + b"".join(map(wire.encode_request_binary, keys))
    assert len(flood) > 2**16  # more than one receive buffer

    async def scenario():
        port, close = await start_endpoint(kind)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(flood)  # one write, no wait for the ack
        ack = await reader.readexactly(len(wire.MAGIC))
        replies = await reader.readexactly(requests * wire.DECISION_FRAME_SIZE)
        writer.close()
        await close()
        return ack, replies

    ack, replies = asyncio.run(scenario())
    assert ack == wire.MAGIC
    frames, consumed = wire.split_frames(bytearray(replies))
    assert consumed == len(replies)
    decisions = [wire.decode_response_binary(frame)[1] for frame in frames]
    # 8 keys round-robin at C=3: request i is its key's (i // 8)-th, so
    # any reordering or loss shifts the admit/balance pattern
    assert [d.admitted for d in decisions] == [i < 24 for i in range(requests)]
    assert [d.balance for d in decisions[:24]] == [2 - i // 8 for i in range(24)]


def test_router_close_delivers_every_reply_it_owes():
    """The router's half of the server's shutdown-drain regression test:
    replies still queued behind a worker gather when ``close()`` is
    called are owed too, not just bytes already in the write buffer."""
    requests = 6000

    async def scenario():
        router, servers = await start_cluster(2)
        reader, writer = await binary_session(router.port)
        writer.write(
            b"".join(wire.encode_request_binary(f"k{i % 16}") for i in range(requests))
        )
        await writer.drain()
        decided = 0
        while decided < requests:  # the router has read and routed them all
            await asyncio.sleep(0.005)
            decided = sum(s.limiter.admitted + s.limiter.rejected for s in servers)

        async def slow_slurp():
            received = 0
            while chunk := await reader.read(4096):
                received += len(chunk)
                await asyncio.sleep(0.001)
            return received

        slurp = asyncio.get_running_loop().create_task(slow_slurp())
        await teardown(router, servers)
        received = await slurp
        writer.close()
        return received

    assert asyncio.run(scenario()) == requests * wire.DECISION_FRAME_SIZE


# ----------------------------------------------------------------------
# worker failure: remap, synthesized rejects, the audited burst bound
# ----------------------------------------------------------------------
def test_worker_failed_is_idempotent():
    async def scenario():
        router, servers = await start_cluster(2)
        router.worker_failed("w0")
        router.worker_failed("w0")  # a second report must not re-remap
        remaps, members = router.remaps, router.workers
        await teardown(router, servers)
        return remaps, members

    remaps, members = asyncio.run(scenario())
    assert remaps == 1
    assert members == ("w1",)


def test_cluster_remaps_a_dead_workers_keys_to_the_survivor():
    async def scenario():
        router, servers = await start_cluster(2)
        session = await binary_session(router.port)
        reader, writer = session
        victim_key = next(
            f"k{i}" for i in range(100) if router._ring.owner(f"k{i}") == "w0"
        )
        survivor_key = next(
            f"s{i}" for i in range(100) if router._ring.owner(f"s{i}") == "w1"
        )
        before = await acquire_many(reader, writer, [victim_key] * 2)
        await servers[0].close()  # the worker dies under the router
        # the next batch still routes to the dead link: its requests
        # come back as synthesized rejects, and the failure is remapped
        synthesized = await acquire_many(reader, writer, [victim_key])
        healed = await acquire_many(
            reader, writer, [victim_key, survivor_key, victim_key]
        )
        stats = await fetch_cluster_stats(reader, writer)
        remaps = router.remaps
        survivor_admitted = servers[1].limiter.admitted
        await teardown(router, servers, session)
        return before, synthesized, healed, stats, remaps, survivor_admitted

    before, synthesized, healed, stats, remaps, survivor_admitted = asyncio.run(
        scenario()
    )
    assert [d.admitted for d in before] == [True, True]
    # in-flight tail at the death: rejected, not a protocol error
    assert [d.admitted for d in synthesized] == [False]
    assert synthesized[0].reason == "exhausted"
    assert remaps == 1
    # after the remap the victim's key lives on the survivor (a fresh
    # account: its 3 tokens admit again), the survivor's key untouched
    assert [d.admitted for d in healed] == [True, True, True]
    assert stats["workers"] == 1 and stats["remaps"] == 1
    assert survivor_admitted >= 3


def test_cluster_burst_bound_holds_through_a_worker_kill():
    """The acceptance property: per-key admissions audited through the
    router never exceed ``ceil(t/Δ) + C`` — including across a worker
    kill and remap, because cold-start workers give a remapped key an
    *empty* account instead of a fresh burst allowance."""
    period = 0.15
    capacity = 2

    async def scenario():
        router, servers = await start_cluster(
            2, capacity=capacity, period=period, initial_tokens=0
        )
        session = await binary_session(router.port)
        reader, writer = session
        key = "audited"
        victim = router._ring.owner(key)
        victim_index = int(victim[1:])
        auditor = RateLimitAuditor(network=None)
        admissions = 0
        killed_at = None
        deadline = time.monotonic() + 9 * period
        while time.monotonic() < deadline:
            (decision,) = await acquire_many(reader, writer, [key])
            if decision.admitted:
                auditor.record(0, time.monotonic())
                admissions += 1
            if killed_at is None and time.monotonic() > deadline - 5 * period:
                await servers[victim_index].close()
                killed_at = time.monotonic()
            await asyncio.sleep(period / 40)
        remaps = router.remaps
        await teardown(router, servers, session)
        return auditor, admissions, remaps

    auditor, admissions, remaps = asyncio.run(scenario())
    assert remaps == 1, "the kill must have been detected and remapped"
    assert admissions >= 2, "the pacer must admit through the failover"
    violations = auditor.check(period=period, capacity=capacity)
    assert not violations, violations


def test_cluster_burst_bound_holds_for_a_randomized_strategy():
    """The bound through the router where no closed form exists: a
    ``randomized`` worker decides every repeated-key group request by
    request and frames each decision as its own RUN, and per-key
    admissions still never exceed ``ceil(t/Δ) + C``. Both workers read
    one manual clock, so the audited times are the decision times."""
    period = 1.0
    capacity = 4
    keys = [f"r{i}" for i in range(6)]
    clock = ManualClock()

    async def scenario():
        router, servers = await start_cluster(
            2,
            strategy="randomized",
            spend_rate=2,
            capacity=capacity,
            period=period,
            clock=clock,
        )
        session = await binary_session(router.port)
        reader, writer = session
        auditor = RateLimitAuditor(network=None)
        sent = 0
        for _ in range(120):  # 30 periods, in quarter-period steps
            batch = keys * 5  # every group has count 5: the fallback path
            decisions = await acquire_many(reader, writer, batch)
            sent += len(batch)
            for key, decision in zip(batch, decisions):
                if decision.admitted:
                    auditor.record(keys.index(key), clock.now)
            clock.advance(period / 4)
        stats = await fetch_cluster_stats(reader, writer)
        await teardown(router, servers, session)
        return auditor, sent, stats

    auditor, sent, stats = asyncio.run(scenario())
    assert stats["strategy"].startswith("randomized")
    assert stats["admitted"] + stats["rejected"] == sent == stats["routed"]
    assert stats["groups"] * 5 == sent and stats["forwarded"] == 0
    admissions = sum(map(auditor.total_sends, range(len(keys))))
    assert admissions == stats["admitted"]
    assert admissions >= len(keys) * (capacity + 20)  # it does admit at rate
    assert stats["rejected"] > 0  # and the batches did overrun the accounts
    violations = auditor.check(period=period, capacity=capacity)
    assert not violations, violations


# ----------------------------------------------------------------------
# the real thing: forked worker processes, `repro serve --workers 2`
# ----------------------------------------------------------------------
def child_pids(parent: object = "self") -> set:
    """The children of ``parent`` (default: this process), live or unreaped."""
    return {
        int(pid)
        for listing in Path(f"/proc/{parent}/task").glob("*/children")
        for pid in listing.read_text().split()
    }


def reaped(handle) -> bool:
    """Whether ``handle``'s process has exited and left no zombie."""
    try:
        os.waitpid(handle.process.pid, os.WNOHANG)
    except ChildProcessError:
        return handle.process.exitcode is not None
    return False


def test_cluster_remaps_a_killed_worker_process_to_the_survivor():
    config = ServeConfig(
        workers=2, strategy="simple", capacity=3, period=50.0, shards=2, seed=1
    )
    handles = [spawn_worker(config, index) for index in range(2)]

    async def scenario():
        router = await ClusterRouter(
            {handle.name: (handle.host, handle.port) for handle in handles},
            host="127.0.0.1",
        ).start()
        unwatch = watch_workers(router, handles)
        session = await binary_session(router.port)
        reader, writer = session
        victim_key = next(
            f"k{i}" for i in range(100) if router._ring.owner(f"k{i}") == "w0"
        )
        survivor_key = next(
            f"s{i}" for i in range(100) if router._ring.owner(f"s{i}") == "w1"
        )
        before = await acquire_many(reader, writer, [victim_key, survivor_key])
        # nothing in flight: no link read can see the death, the sentinel must
        killed = time.monotonic()
        os.kill(handles[0].process.pid, signal.SIGKILL)
        while not router.remaps and time.monotonic() < killed + 10.0:
            await asyncio.sleep(0.001)
        seen = time.monotonic() - killed
        reaped_at_once = reaped(handles[0])
        healed = await acquire_many(reader, writer, [victim_key] * 4 + [survivor_key])
        stats = await fetch_cluster_stats(reader, writer)
        unwatch()
        await teardown(router, [], session)
        return before, seen, reaped_at_once, healed, stats

    try:
        before, seen, reaped_at_once, healed, stats = asyncio.run(scenario())
    finally:
        for handle in handles:
            handle.stop()
    assert [d.admitted for d in before] == [True, True]
    assert seen <= 0.25, f"the idle worker's death was seen after {seen:.3f} s"
    assert reaped_at_once  # no zombie left until shutdown
    assert stats["remaps"] == 1 and stats["workers"] == 1
    # the victim's key starts a fresh account (C = 3) on the survivor,
    # whose own key still has the 2 tokens left
    assert [d.admitted for d in healed] == [True, True, True, False, True]
    assert stats["admitted"] == 5 and stats["rejected"] == 1
    assert handles[0].process.exitcode == -signal.SIGKILL
    assert all(map(reaped, handles))


def test_serve_config_builds_the_server_and_each_worker_limiter():
    config = ServeConfig(
        strategy="randomized",
        spend_rate=5,
        capacity=10,
        shards=2,
        max_keys=120,
        seed=7,
        workers=3,
        cold_start=True,
    )
    single, worker = config.limiter(), config.limiter(2)
    for limiter, keys, seed in ((single, 120, 7), (worker, 40, 9)):
        # a worker owns ~1/3 of the key space and draws from seed + index
        assert sum(shard.max_keys for shard in limiter._table.shards) == keys
        assert limiter._rng.random() == random.Random(seed).random()
        assert not limiter.try_acquire("k").admitted  # cold: a fresh key is empty


def test_a_worker_that_cannot_bind_fails_fast_and_is_reaped():
    # TEST-NET-1: no local interface holds it, so the worker's bind fails
    config = ServeConfig(workers=1, strategy="simple", capacity=3, host="192.0.2.1")
    before = child_pids()
    started = time.monotonic()
    with pytest.raises(BindError, match="cannot bind 192.0.2.1:0: "):
        spawn_worker(config, 0)
    assert time.monotonic() - started < 10.0
    assert child_pids() == before


def test_cluster_without_fork_is_a_usage_error(monkeypatch, capsys):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    argv = ["serve", "--workers", "2", "--strategy", "simple", "--duration", "1"]
    assert cli.main(argv) == 2
    assert "--workers needs the 'fork' start method" in capsys.readouterr().err


def serve_cli(*flags: str, **popen) -> subprocess.Popen:
    """``python -u -m repro serve --strategy simple -C 3 FLAGS`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve"]
        + ["--strategy", "simple", "-C", "3", "--host", "127.0.0.1", *flags],
        text=True,
        env=env,
        **popen,
    )


def running(pid: int) -> bool:
    """Whether ``pid`` is alive: gone and zombie (exited, unreaped) are not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def run_serve_cli(*flags: str) -> str:
    """``repro serve`` for 3 s with 20 acquires over 4 keys: its last line.

    The server runs its ``--duration`` out, so the line is the shutdown
    summary; the drive takes a fraction of that.
    """
    announce = re.compile(r"on [0-9.]+:(\d+)")
    process = serve_cli(
        *flags,
        *("--period", "50", "--port", "0", "--duration", "3", "--seed", "1"),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        assert process.stdout is not None
        match = None
        for line in process.stdout:
            match = announce.search(line)
            if match:
                break
        assert match, "the server never announced its port"

        async def drive():
            session = await binary_session(int(match.group(1)))
            decisions = await acquire_many(
                *session, [f"k{i % 4}" for i in range(20)]
            )
            stats = await fetch_cluster_stats(*session)
            session[1].close()
            return decisions, stats

        decisions, stats = asyncio.run(drive())
        assert sum(d.admitted for d in decisions) == 12  # 4 keys x C=3
        assert stats["admitted"] == 12 and stats["rejected"] == 8
        assert stats.get("workers", 0) == (2 if flags else 0)
        rest, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:  # pragma: no cover - a failed drive
            process.kill()
            process.wait(timeout=10)
    assert process.returncode == 0, rest
    return rest.splitlines()[-1]


def test_cluster_cli_smoke():
    assert run_serve_cli("--workers", "2") == (
        "served 12 admissions / 8 rejections over 4 key(s) "
        "across 2 worker(s), 0 remap(s)"
    )


def test_server_cli_smoke():
    assert run_serve_cli() == "served 12 admissions / 8 rejections over 4 key(s)"


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["term", "int"])
@pytest.mark.parametrize("flags", [(), ("--workers", "2")], ids=["server", "cluster"])
def test_a_signal_stops_serve_with_its_summary(flags, signum):
    # no --duration: only the signal ends it, the way --duration would
    process = serve_cli(
        *flags,
        *("--period", "50", "--port", "0", "--seed", "1"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    members: set = set()
    try:
        assert process.stdout is not None
        match = re.search(r"on [0-9.]+:(\d+)", process.stdout.readline())
        assert match, "the server never announced its port"
        members = {process.pid} | child_pids(process.pid)
        assert len(members) == 1 + (2 if flags else 0)

        async def drive():
            session = await binary_session(int(match.group(1)))
            decisions = await acquire_many(*session, [f"k{i % 4}" for i in range(20)])
            session[1].close()
            return decisions

        assert sum(d.admitted for d in asyncio.run(drive())) == 12
        process.send_signal(signum)
        out, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:  # pragma: no cover - a failed drive
            process.kill()
            process.wait(timeout=10)
        for pid in filter(running, members - {process.pid}):  # pragma: no cover
            os.kill(pid, signal.SIGKILL)
    assert process.returncode == 0
    assert err == ""
    cluster = " across 2 worker(s), 0 remap(s)" if flags else ""
    assert out.splitlines()[-1] == (
        f"served 12 admissions / 8 rejections over 4 key(s){cluster}"
    )
    assert not any(map(running, members))


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["term", "int"])
def test_a_group_signal_stops_a_cluster_with_its_true_summary(signum):
    """A signal to the whole process group (a terminal's ^C, a supervisor's
    stop) reaches the workers too: they must leave their end to the router,
    whose summary counts what they decided."""
    process = serve_cli(
        *("--workers", "2", "--period", "50", "--port", "0", "--seed", "1"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    members: set = set()
    try:
        assert process.stdout is not None
        match = re.search(r"on [0-9.]+:(\d+)", process.stdout.readline())
        assert match, "the router never announced its port"
        members = {process.pid} | child_pids(process.pid)
        assert len(members) == 3

        async def drive():
            session = await binary_session(int(match.group(1)))
            decisions = await acquire_many(*session, [f"k{i % 4}" for i in range(20)])
            session[1].close()
            return decisions

        assert sum(d.admitted for d in asyncio.run(drive())) == 12
        os.killpg(process.pid, signum)
        out, err = process.communicate(timeout=30)
    finally:
        if process.poll() is None:  # pragma: no cover - a failed drive
            process.kill()
            process.wait(timeout=10)
        for pid in filter(running, members - {process.pid}):  # pragma: no cover
            os.kill(pid, signal.SIGKILL)
    assert process.returncode == 0
    assert err == ""
    assert out.splitlines()[-1] == (
        "served 12 admissions / 8 rejections over 4 key(s) "
        "across 2 worker(s), 0 remap(s)"
    )
    assert not any(map(running, members))


@pytest.mark.parametrize("flags", [(), ("--workers", "2")], ids=["server", "cluster"])
def test_serve_on_a_busy_port_is_one_error_line(flags):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        process = serve_cli(
            *flags,
            *("--port", str(port), "--duration", "3"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        out, err = process.communicate(timeout=60)
    assert process.returncode == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: cannot bind 127.0.0.1:{port}: {os.strerror(errno.EADDRINUSE)}"
    ]
    # a cluster's workers are forked before the router binds: none is left
    same_port = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            argv = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue
        if b"serve" in argv and str(port).encode() in argv:
            same_port.append(int(cmdline.parent.name))
    assert [pid for pid in same_port if running(pid)] == []


def serve_pids(marker: str) -> list:
    """Live ``repro serve`` processes (forked workers too) with ``marker`` in argv."""
    pids = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            argv = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue
        if b"serve" in argv and marker.encode() in argv:
            pids.append(int(cmdline.parent.name))
    return [pid for pid in pids if running(pid)]


@pytest.mark.parametrize("flags", [(), ("--workers", "1")], ids=["server", "cluster"])
def test_serve_on_an_unbindable_host_is_one_error_line(flags):
    # TEST-NET-1: no local interface holds it; a cluster's worker binds first
    process = serve_cli(
        *flags,
        *("--host", "192.0.2.1", "--port", "0", "--duration", "3"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    out, err = process.communicate(timeout=60)
    assert process.returncode == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot bind 192.0.2.1:0: ")
    assert serve_pids("192.0.2.1") == []


@pytest.mark.parametrize(
    "flags, error",
    [
        ((), "error: strategy 'simple' requires parameter 'capacity'"),  # no -C
        (("-C", "3", "--shards", "0"), "error: need at least one shard, got 0"),
        (("-C", "3", "--period", "0"), "error: period must be positive, got 0.0"),
    ],
    ids=["capacity", "shards", "period"],
)
def test_a_cluster_refuses_a_bad_strategy_as_the_server_does(flags, error, capsys):
    argv = ["serve", "--strategy", "simple", "--duration", "1", *flags]
    assert cli.main(argv) == 2
    alone = capsys.readouterr()
    before = child_pids()
    assert cli.main(argv + ["--workers", "2"]) == 2
    assert child_pids() == before
    assert capsys.readouterr() == alone
    assert alone.out == ""
    assert alone.err.startswith(error)
    assert len(alone.err.splitlines()) == 1


def test_serve_reports_no_other_oserror_as_a_bind_failure(monkeypatch, capsys):
    # a fork that fails (EAGAIN) is not the port's fault: it propagates
    def no_fork(config, index):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr("repro.serve.cluster.spawn_worker", no_fork)
    argv = ["serve", "--workers", "2", "--strategy", "simple", "-C", "3"]
    with pytest.raises(OSError) as raised:
        cli.main(argv + ["--port", "0", "--duration", "1"])
    assert raised.value.errno == errno.EAGAIN
    assert "cannot bind" not in capsys.readouterr().err


def test_workers_exit_when_their_router_is_killed():
    # no --duration: a worker that did not watch its router would serve on
    # for good, holding its port
    process = serve_cli("--workers", "2", "--port", "0", stdout=subprocess.PIPE)
    workers: set = set()
    try:
        assert process.stdout is not None
        assert "routing 2-worker" in process.stdout.readline()
        workers = child_pids(process.pid)
        assert len(workers) == 2
        process.kill()
        process.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(running, workers))
    finally:
        if process.poll() is None:  # pragma: no cover - a failed start
            process.kill()
            process.wait(timeout=10)
        for pid in filter(running, workers):  # pragma: no cover - the bug
            os.kill(pid, signal.SIGKILL)
