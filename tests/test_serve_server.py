"""Loopback tests for the admission server and loadgen."""

from __future__ import annotations

import asyncio
import json
import socket
import subprocess
import sys

import pytest

from repro.scenarios import ArrivalSpec
from repro.serve import (
    AdmissionServer,
    Decision,
    TokenAccountLimiter,
    run_loadgen,
    wire,
)
from tests.conftest import binary_client, read_frames


def make_limiter(**overrides) -> TokenAccountLimiter:
    kwargs = dict(strategy="simple", capacity=3, period=50.0, shards=2, seed=1)
    kwargs.update(overrides)
    return TokenAccountLimiter(**kwargs)


async def start_server(limiter) -> AdmissionServer:
    return await AdmissionServer(limiter, host="127.0.0.1", port=0).start()


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
def test_serving_process_does_not_import_scipy():
    """``repro/__init__`` reaches ``overlay/matrix.py``; only the chaotic
    iteration reference needs scipy, and every ``repro serve`` worker
    would pay ≈ 0.2 s of start-up for importing it."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.serve; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_server_answers_batched_pipeline_in_order():
    async def scenario():
        limiter = make_limiter()  # C=3, long period: exactly 3 admits
        server = await start_server(limiter)
        reader, writer = await binary_client(server.port)
        # five acquires + stats + ping, all in ONE segment
        writer.write(
            wire.encode_request_binary("k") * 5
            + wire.encode_command_binary(wire.OP_STATS)
            + wire.encode_command_binary(wire.OP_PING)
        )
        await writer.drain()
        writer.write_eof()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        await server.close()
        return raw

    raw = asyncio.run(scenario())
    frames, consumed = wire.split_frames(bytearray(raw))
    assert consumed == len(raw) and len(frames) == 7
    decisions = [wire.decode_response_binary(f, key="k")[1] for f in frames[:5]]
    assert [d.admitted for d in decisions] == [True, True, True, False, False]
    status, document = wire.decode_response_binary(frames[5])
    assert status == wire.STATUS_STATS
    stats = json.loads(document)
    assert stats["admitted"] == 3 and stats["rejected"] == 2
    assert stats["keys"] == 1 and "connections" in stats
    assert wire.decode_response_binary(frames[6]) == (wire.STATUS_PONG, None)


def test_server_reports_errors_and_keeps_serving():
    async def scenario():
        server = await start_server(make_limiter())
        reader, writer = await binary_client(server.port)
        writer.write(
            b"\x00\x00"  # an empty frame
            + wire.ACQUIRE_HEADER.pack(2, wire.OP_ACQUIRE, 1)  # ACQUIRE, no key
            + wire.encode_request_binary("k")
        )
        await writer.drain()
        frames = await read_frames(reader, 3)
        writer.close()
        await writer.wait_closed()
        await server.close()
        return frames

    empty, keyless, decided = asyncio.run(scenario())
    with pytest.raises(ValueError, match="empty frame"):
        wire.decode_response_binary(empty)
    with pytest.raises(ValueError, match="needs a key"):
        wire.decode_response_binary(keyless)
    assert wire.decode_response_binary(decided, key="k")[1].admitted


def test_server_shares_one_limiter_across_connections():
    async def scenario():
        limiter = make_limiter()
        server = await start_server(limiter)

        async def acquire_once():
            reader, writer = await binary_client(server.port)
            writer.write(wire.encode_request_binary("shared"))
            await writer.drain()
            (frame,) = await read_frames(reader, 1)
            writer.close()
            await writer.wait_closed()
            return wire.decode_response_binary(frame, key="shared")[1].admitted

        outcomes = [await acquire_once() for _ in range(5)]
        await server.close()
        return outcomes

    # one shared account: 3 tokens total across distinct connections
    assert asyncio.run(scenario()) == [True, True, True, False, False]


def test_server_port_zero_picks_a_free_port():
    async def scenario():
        server = await start_server(make_limiter())
        port = server.port
        await server.close()
        return port

    assert asyncio.run(scenario()) > 0


def test_accepted_connections_send_without_nagles_delay():
    # asyncio turns TCP_NODELAY on only for accepted sockets whose proto
    # says TCP, which they take from the listening socket bind() made
    async def scenario():
        server = await start_server(make_limiter())
        session = await binary_client(server.port)
        (connection,) = server._protocols
        sock = connection.transport.get_extra_info("socket")
        nodelay = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        session[1].close()
        await server.close()
        return nodelay

    assert asyncio.run(scenario())


# ----------------------------------------------------------------------
# Loadgen against a live server (the tier-1 smoke required by the issue)
# ----------------------------------------------------------------------
def test_loopback_loadgen_smoke():
    async def scenario():
        # 4 keys x (C=5 burst + 1 token/0.05s) over 0.6s: the schedule
        # oversubscribes the allowance so both outcomes appear.
        limiter = TokenAccountLimiter(
            "simple", capacity=5, period=0.05, shards=2, seed=1
        )
        server = await start_server(limiter)
        spec = ArrivalSpec(pattern="poisson", rate=400.0)
        report = await run_loadgen(
            "127.0.0.1",
            server.port,
            spec,
            duration=0.6,
            connections=3,
            keys=4,
            seed=5,
        )
        await server.close()
        return limiter, report

    limiter, report = asyncio.run(scenario())
    summary = report.summary
    assert report.offered > 100
    assert summary["requests"] == report.offered  # every request answered
    assert summary["admitted"] + summary["rejected"] == summary["requests"]
    assert report.errors == 0
    # the server-side and client-side accounting agree
    assert limiter.admitted == int(summary["admitted"])
    assert limiter.rejected == int(summary["rejected"])
    # admission control actually limited the oversubscribed load
    assert summary["rejected"] > 0
    assert summary["latency_p99_ms"] >= summary["latency_p50_ms"] > 0.0
    assert report.admitted_per_second, "admitted-over-time series missing"


def test_loadgen_flash_crowd_pattern_rejects_the_burst():
    async def scenario():
        limiter = TokenAccountLimiter(
            "generalized", spend_rate=2, capacity=4, period=0.05, shards=2, seed=1
        )
        server = await start_server(limiter)
        spec = ArrivalSpec(
            pattern="flash-crowd",
            rate=60.0,
            peak_rate=1500.0,
            start_fraction=0.3,
            window_fraction=0.2,
        )
        report = await run_loadgen(
            "127.0.0.1", server.port, spec, duration=0.8, connections=2, keys=2, seed=9
        )
        await server.close()
        return report

    report = asyncio.run(scenario())
    # the crowd window oversubscribes 2 keys' allowance massively: the
    # §3.4 ceiling must show up as rejections, not melted latency
    assert report.summary["rejected"] > report.summary["admitted"]
    assert report.summary["latency_p99_ms"] < 1000.0
    assert report.errors == 0


def test_loadgen_survives_a_mid_run_disconnect():
    """A vanishing server yields a partial report, not a crash.

    Everything answered before the disconnect stays measured; the
    unanswered remainder is counted in ``report.errors``.
    """

    async def scenario():
        answered = 8
        admit = wire.encode_decision_binary(Decision(True, "", "reactive", 1))

        async def flaky_handler(reader, writer):
            # answer the first few requests, then hang up mid-run
            writer.write(await reader.readexactly(len(wire.MAGIC)))
            for _ in range(answered):
                length = int.from_bytes(await reader.readexactly(2), "little")
                await reader.readexactly(length)
                writer.write(admit)
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(flaky_handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        spec = ArrivalSpec(pattern="uniform", rate=200.0)
        report = await run_loadgen(
            "127.0.0.1", port, spec, duration=0.5, connections=1, keys=2, seed=1
        )
        server.close()
        await server.wait_closed()
        return report

    report = asyncio.run(scenario())
    assert report.offered == 99  # 200/s over 0.5s, open-loop
    assert report.summary["requests"] == 8  # the answered prefix survives
    assert report.summary["admitted"] == 8
    assert report.errors == report.offered - 8  # the rest is accounted for


def test_run_server_duration_returns():
    from repro.serve import run_server

    async def scenario():
        limiter = make_limiter()
        notes = []
        await run_server(
            limiter, host="127.0.0.1", port=0, duration=0.05, announce=notes.append
        )
        return notes

    notes = asyncio.run(scenario())
    assert len(notes) == 1 and "admission control" in notes[0]


# ----------------------------------------------------------------------
# close() drains in-flight pipelined responses (shutdown regression)
# ----------------------------------------------------------------------
def test_close_drains_pipelined_responses_to_a_slow_reader():
    """A shutdown must not truncate responses already owed to a client.

    The regression: a pipelined burst leaves kilobytes of DECISION
    frames in the transport's write buffer; a bare ``transport.close()``
    schedules the flush on a loop that is about to die, so the tail of
    the burst silently vanished. ``close()`` now pauses reading and
    waits for the buffers to reach the socket before closing.
    """
    requests = 6000

    async def scenario():
        limiter = TokenAccountLimiter(
            "simple", capacity=3, period=50.0, shards=2, seed=1
        )
        server = await AdmissionServer(limiter, host="127.0.0.1", port=0).start()
        reader, writer = await binary_client(server.port)
        writer.write(wire.encode_request_binary("k") * requests)
        await writer.drain()
        # Let the server decide the whole burst; with the client not
        # reading, most of it is now parked in the write buffer.
        await asyncio.sleep(0.2)

        received = bytearray()

        async def slow_slurp():
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    return
                received.extend(chunk)
                await asyncio.sleep(0.001)

        slurp = asyncio.get_running_loop().create_task(slow_slurp())
        await server.close()  # must wait for the reader, not truncate
        await slurp
        writer.close()
        return bytes(received)

    received = asyncio.run(scenario())
    assert len(received) == requests * wire.DECISION_FRAME_SIZE
    # every frame intact: all DECISION status bytes on the 17-byte grid
    assert all(
        received[i + 2] == wire.STATUS_DECISION
        for i in range(0, len(received), wire.DECISION_FRAME_SIZE)
    )
