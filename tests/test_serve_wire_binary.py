"""Wire framing: codec round trips and the server's frame handling.

The wire's correctness claims: every frame round-trips exactly (any
key, any decision, any ``f64`` retry hint), and the incremental frame
splitter is insensitive to how the byte stream is segmented (the
property a TCP client actually needs).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ManualClock, wire
from repro.serve.cluster import _expand_runs
from repro.serve.limiter import Decision, TokenAccountLimiter
from repro.serve.server import AdmissionServer
from tests.conftest import binary_client, read_frames

# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
keys = st.text(min_size=1, max_size=wire.MAX_KEY_LENGTH).filter(
    lambda k: len(k.encode()) <= wire.MAX_FRAME - 4
)

decisions = st.one_of(
    st.builds(
        lambda key, reason, balance: Decision(True, key, reason, balance),
        keys,
        st.sampled_from(("reactive", "proactive")),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    ),
    st.builds(
        lambda key, balance, retry: Decision(False, key, "exhausted", balance, retry),
        keys,
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ),
)


def segmented(blob: bytes, cuts) -> list:
    """Split ``blob`` at the given relative cut points (pathological TCP)."""
    bounds = sorted({int(cut * len(blob)) for cut in cuts})
    pieces, last = [], 0
    for bound in bounds:
        pieces.append(blob[last:bound])
        last = bound
    pieces.append(blob[last:])
    return [piece for piece in pieces if piece]


# ----------------------------------------------------------------------
# codec round trips
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(key=keys, useful=st.booleans())
def test_request_round_trip(key, useful):
    frame = wire.encode_request_binary(key, useful)
    payloads, consumed = wire.split_frames(bytearray(frame))
    assert consumed == len(frame) and len(payloads) == 1
    assert wire.parse_request_binary(payloads[0]) == ("A", key, useful)


@settings(max_examples=200, deadline=None)
@given(decision=decisions)
def test_decision_round_trip(decision):
    frame = wire.encode_decision_binary(decision)
    assert len(frame) == wire.DECISION_FRAME_SIZE
    payloads, consumed = wire.split_frames(bytearray(frame))
    assert consumed == len(frame)
    status, decoded = wire.decode_response_binary(payloads[0], key=decision.key)
    assert status == wire.STATUS_DECISION
    assert decoded == decision


@settings(max_examples=100, deadline=None)
@given(
    batch=st.lists(decisions, min_size=0, max_size=20),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
)
def test_pipelined_stream_survives_any_segmentation(batch, cuts):
    """Feeding a response run in arbitrary chunks recovers every frame."""
    blob = wire.encode_decisions_binary(batch)
    assert blob == b"".join(wire.encode_decision_binary(d) for d in batch)
    buffer = bytearray()
    recovered = []
    for piece in segmented(blob, cuts):
        buffer += piece
        payloads, consumed = wire.split_frames(buffer)
        del buffer[:consumed]
        for payload in payloads:
            index = len(recovered)
            status, decoded = wire.decode_response_binary(
                payload, key=batch[index].key
            )
            recovered.append(decoded)
    assert not buffer  # every byte consumed
    assert recovered == batch


@settings(max_examples=100, deadline=None)
@given(
    requests=st.lists(st.tuples(keys, st.booleans()), min_size=1, max_size=20),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
)
def test_request_stream_survives_any_segmentation(requests, cuts):
    blob = b"".join(wire.encode_request_binary(k, u) for k, u in requests)
    buffer = bytearray()
    recovered = []
    for piece in segmented(blob, cuts):
        buffer += piece
        payloads, consumed = wire.split_frames(buffer)
        del buffer[:consumed]
        recovered.extend(wire.parse_request_binary(p) for p in payloads)
    assert recovered == [("A", k, u) for k, u in requests]


def test_split_frames_rejects_oversized_prefix():
    bogus = (wire.MAX_FRAME + 1).to_bytes(2, "little") + b"x"
    with pytest.raises(ValueError, match="exceeds"):
        wire.split_frames(bytearray(bogus))


def test_malformed_payloads_raise():
    with pytest.raises(ValueError):
        wire.parse_request_binary(b"")
    with pytest.raises(ValueError, match="opcode"):
        wire.parse_request_binary(bytes([99]))
    with pytest.raises(ValueError, match="key"):
        wire.parse_request_binary(bytes([wire.OP_ACQUIRE, wire.FLAG_USEFUL]))
    with pytest.raises(ValueError):
        wire.decode_response_binary(b"")
    with pytest.raises(ValueError, match="status"):
        wire.decode_response_binary(bytes([77]))
    with pytest.raises(ValueError, match="server error"):
        wire.decode_response_binary(bytes([wire.STATUS_ERROR]) + b"boom")


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
def _run(coro):
    return asyncio.run(coro)


async def _start_server(**limiter_kwargs):
    defaults = dict(capacity=4, period=60.0, seed=5)
    defaults.update(limiter_kwargs)
    limiter = TokenAccountLimiter("simple", **defaults)
    server = await AdmissionServer(limiter).start()
    return server


def test_binary_pipeline_answers_in_order():
    async def scenario():
        server = await _start_server()
        reader, writer = await binary_client(server.port)
        writer.write(wire.encode_request_binary("k") * 6)
        await writer.drain()
        frames = await read_frames(reader, 6)
        decided = [
            wire.decode_response_binary(f, key="k")[1] for f in frames
        ]
        assert [d.admitted for d in decided] == [True] * 4 + [False] * 2
        # balances count down: proof the run went through one batch
        assert [d.balance for d in decided[:4]] == [3, 2, 1, 0]
        writer.close()
        await server.close()

    _run(scenario())


def test_binary_stats_and_ping_are_flush_barriers():
    async def scenario():
        server = await _start_server()
        reader, writer = await binary_client(server.port)
        writer.write(
            wire.encode_request_binary("a")
            + wire.encode_command_binary(wire.OP_STATS)
            + wire.encode_request_binary("a")
            + wire.encode_command_binary(wire.OP_PING)
        )
        await writer.drain()
        frames = await read_frames(reader, 4)
        statuses = [wire.decode_response_binary(f, key="a")[0] for f in frames]
        assert statuses == [
            wire.STATUS_DECISION,
            wire.STATUS_STATS,
            wire.STATUS_DECISION,
            wire.STATUS_PONG,
        ]
        stats = json.loads(wire.decode_response_binary(frames[1])[1])
        # the STATS barrier saw exactly the one admission before it
        assert stats["admitted"] == 1
        writer.close()
        await server.close()

    _run(scenario())


def test_unknown_binary_version_gets_text_error_and_close():
    async def scenario():
        server = await _start_server()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(bytes([wire.MAGIC[0]]) + b"TA\x7f")
        await writer.drain()
        line = await reader.readline()
        assert line.startswith(b"! unsupported")
        assert await reader.read() == b""  # connection closed
        writer.close()
        await server.close()

    _run(scenario())


def test_unknown_opcode_answers_error_frame_and_survives():
    async def scenario():
        server = await _start_server()
        reader, writer = await binary_client(server.port)
        writer.write(bytes([1, 0, 42]))  # length 1, opcode 42
        writer.write(wire.encode_command_binary(wire.OP_PING))
        await writer.drain()
        frames = await read_frames(reader, 2)
        with pytest.raises(ValueError, match="opcode"):
            wire.decode_response_binary(frames[0])
        assert wire.decode_response_binary(frames[1])[0] == wire.STATUS_PONG
        writer.close()
        await server.close()

    _run(scenario())


def test_oversized_frame_prefix_closes_the_connection():
    async def scenario():
        server = await _start_server()
        reader, writer = await binary_client(server.port)
        writer.write((wire.MAX_FRAME + 9).to_bytes(2, "little") + b"xx")
        await writer.drain()
        frames = await read_frames(reader, 1)
        with pytest.raises(ValueError, match="exceeds"):
            wire.decode_response_binary(frames[0])
        assert await reader.read() == b""
        writer.close()
        await server.close()

    _run(scenario())


def test_binary_usefulness_flag_reaches_the_limiter():
    async def scenario():
        # generalized at A=3: REACTIVE(a, False) = floor((2+a)/6) is 0
        # until the balance reaches 4, so useless traffic is rejected
        # while useful traffic is admitted from balance 3.
        limiter = TokenAccountLimiter(
            "generalized", spend_rate=3, capacity=6, period=60.0, seed=5,
            initial_tokens=3,
        )
        server = await AdmissionServer(limiter).start()
        reader, writer = await binary_client(server.port)
        writer.write(
            wire.encode_request_binary("k", useful=False)
            + wire.encode_request_binary("k", useful=True)
        )
        await writer.drain()
        frames = await read_frames(reader, 2)
        useless = wire.decode_response_binary(frames[0], key="k")[1]
        useful = wire.decode_response_binary(frames[1], key="k")[1]
        assert not useless.admitted
        assert useful.admitted
        writer.close()
        await server.close()

    _run(scenario())


# ----------------------------------------------------------------------
# the bulk admission opcode (cluster router -> worker)
# ----------------------------------------------------------------------
bulk_groups = st.lists(
    st.tuples(
        st.text(min_size=1, max_size=24).map(lambda k: k.encode("utf-8")),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=1, max_value=2**16 - 1),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(groups=bulk_groups)
def test_bulk_frame_round_trip(groups):
    frame = wire.encode_bulk_binary(groups)
    length = frame[0] | (frame[1] << 8)
    assert length == len(frame) - 2
    assert frame[2] == wire.OP_ACQUIRE_BULK
    parsed = wire.parse_bulk_binary(frame[2:])
    assert parsed == [
        (raw.decode("utf-8"), bool(flags & wire.FLAG_USEFUL), count)
        for raw, flags, count in groups
    ]


def test_bulk_frame_rejects_malformed_payloads():
    good = wire.encode_bulk_binary([(b"key", 1, 3)])[2:]
    with pytest.raises(ValueError):
        wire.parse_bulk_binary(good[:1])  # opcode alone: empty frame
    with pytest.raises(ValueError):
        wire.parse_bulk_binary(good[:-1])  # truncated trailing count
    with pytest.raises(ValueError):
        wire.parse_bulk_binary(good[:4])  # truncated key bytes
    with pytest.raises(ValueError):  # zero-request group
        wire.parse_bulk_binary(wire.encode_bulk_binary([(b"key", 1, 0)])[2:])
    with pytest.raises(ValueError):  # zero-length key
        wire.parse_bulk_binary(bytes((wire.OP_ACQUIRE_BULK, 0, 0, 1, 1, 0)))
    with pytest.raises(ValueError):  # over-long key
        wire.parse_bulk_binary(
            wire.encode_bulk_binary([(b"k" * (wire.MAX_KEY_LENGTH + 1), 1, 1)])[2:]
        )
    with pytest.raises(ValueError):  # the frame budget is enforced
        wire.encode_bulk_binary([(b"k" * 200, 1, 1)] * 32)


def test_run_frame_layout():
    frame = wire.encode_run_binary("reactive", 3, 2, 5, 1.5)
    assert len(frame) == wire.RUN_FRAME_SIZE
    length, status, reason, admits, rejects, balance, retry = (
        wire.RUN_STRUCT.unpack(frame)
    )
    assert length == wire.RUN_FRAME_SIZE - 2
    assert status == wire.STATUS_RUN
    assert reason == wire.REASON_CODES["reactive"]
    assert (admits, rejects, balance, retry) == (3, 2, 5, 1.5)


def test_worker_answers_bulk_group_with_one_run_frame():
    async def scenario():
        server = await _start_server()  # simple C=4, deterministic
        reader, writer = await binary_client(server.port)
        writer.write(wire.encode_bulk_binary([(b"k", wire.FLAG_USEFUL, 6)]))
        await writer.drain()
        frame = await reader.readexactly(wire.RUN_FRAME_SIZE)
        _, status, reason, admits, rejects, balance, retry = (
            wire.RUN_STRUCT.unpack(frame)
        )
        assert status == wire.STATUS_RUN
        assert reason == wire.REASON_CODES["reactive"]
        # C=4 tokens pre-spend: a 4-admit prefix, 2 rejects at balance 0
        assert (admits, rejects, balance) == (4, 2, 4)
        assert retry > 0.0
        # the limiter's counters saw all six requests
        assert server.limiter.admitted == 4 and server.limiter.rejected == 2
        writer.close()
        await server.close()

    _run(scenario())


def test_worker_bulk_groups_interleave_with_plain_acquires_in_order():
    async def scenario():
        server = await _start_server()
        reader, writer = await binary_client(server.port)
        # plain ACQUIRE, then a two-group bulk frame, then plain again:
        # responses must come back in exactly that order
        writer.write(
            wire.encode_request_binary("a")
            + wire.encode_bulk_binary(
                [(b"a", wire.FLAG_USEFUL, 2), (b"b", wire.FLAG_USEFUL, 1)]
            )
            + wire.encode_request_binary("b")
        )
        await writer.drain()
        first = await reader.readexactly(wire.DECISION_FRAME_SIZE)
        assert first[2] == wire.STATUS_DECISION
        run_a = await reader.readexactly(wire.RUN_FRAME_SIZE)
        run_b = await reader.readexactly(wire.RUN_FRAME_SIZE)
        last = await reader.readexactly(wire.DECISION_FRAME_SIZE)
        a = wire.RUN_STRUCT.unpack(run_a)
        b = wire.RUN_STRUCT.unpack(run_b)
        # "a" spent one token before its group (balance 3 pre-spend)
        assert (a[3], a[4], a[5]) == (2, 0, 3)
        assert (b[3], b[4], b[5]) == (1, 0, 4)
        decision = wire.decode_response_binary(last[2:], key="b")[1]
        assert decision.admitted and decision.balance == 2
        writer.close()
        await server.close()

    _run(scenario())


def test_worker_answers_bulk_with_unit_runs_when_not_closed_form():
    async def scenario():
        # randomized strategies cannot promise an admit-prefix run, so
        # the worker decides request by request — and still answers in
        # RUN frames, one per decision
        spec = dict(spend_rate=3, capacity=6, period=60.0, seed=5)
        limiter = TokenAccountLimiter("randomized", **spec)
        reference = TokenAccountLimiter("randomized", **spec)
        server = await AdmissionServer(limiter).start()
        reader, writer = await binary_client(server.port)
        writer.write(wire.encode_bulk_binary([(b"k", wire.FLAG_USEFUL, 5)]))
        await writer.drain()
        stream = await reader.readexactly(5 * wire.RUN_FRAME_SIZE)
        runs = np.frombuffer(stream, dtype=wire.RUN_DTYPE)
        assert (runs["status"] == wire.STATUS_RUN).all()
        assert (runs["admits"] + runs["rejects"] == 1).all()
        # frame for frame what five sequential decisions would have been
        expected = reference.try_acquire_many(["k"] * 5, True, now=limiter._clock())
        assert runs["admits"].tolist() == [int(d.admitted) for d in expected]
        assert (runs["balance"] - runs["admits"]).tolist() == [
            d.balance for d in expected
        ]
        assert limiter.admitted + limiter.rejected == 5
        writer.close()
        await server.close()

    _run(scenario())


def test_worker_bulk_mixed_groups_match_the_sequential_scalar_path():
    """count-1, count-5, count-1 groups on one key with different
    flags: the lone groups go through ``try_acquire_many``, the middle
    one through ``try_acquire_run``, and group order, balances, retry
    hints and counters are those of seven scalar ``try_acquire`` calls."""
    # at balance 3 (A=3) a useless request is refused where a useful one
    # is admitted, so a flag or order mixup flips outcomes
    spec = dict(
        strategy="generalized", spend_rate=3, capacity=6, period=60.0, initial_tokens=3
    )
    groups = [(False, 1), (True, 5), (False, 1)]
    clock = ManualClock(100.0)

    async def scenario():
        limiter = TokenAccountLimiter(clock=clock, **spec)
        server = await AdmissionServer(limiter).start()
        reader, writer = await binary_client(server.port)
        writer.write(
            wire.encode_bulk_binary(
                [(b"k", wire.FLAG_USEFUL if useful else 0, n) for useful, n in groups]
            )
        )
        await writer.drain()
        stream = await reader.readexactly(len(groups) * wire.RUN_FRAME_SIZE)
        writer.close()
        await server.close()
        return limiter, np.frombuffer(stream, dtype=wire.RUN_DTYPE)

    limiter, runs = asyncio.run(scenario())
    reference = TokenAccountLimiter(clock=clock, **spec)
    sequential = [
        reference.try_acquire("k", useful) for useful, n in groups for _ in range(n)
    ]
    assert [d.admitted for d in sequential] == [False] + [True] * 3 + [False] * 3
    # one RUN per group, in group order, covering each group's count
    assert (runs["admits"] + runs["rejects"]).tolist() == [n for _, n in groups]
    expanded = _expand_runs(runs).tobytes()
    assert expanded == wire.encode_decisions_binary(sequential)
    assert (limiter.admitted, limiter.rejected) == (
        reference.admitted,
        reference.rejected,
    )
    assert limiter.balance("k") == reference.balance("k")


def unit_runs(decisions) -> bytes:
    """One single-decision ``RUN`` frame per decision — the per-object
    encoder ``wire.runs_from_decision_frames`` replaced, kept as the spec."""
    return b"".join(
        wire.encode_run_binary(
            d.reason,
            int(d.admitted),
            int(not d.admitted),
            d.balance + d.admitted,
            d.retry_after or 0.0,
        )
        for d in decisions
    )


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(decisions, max_size=12))
def test_decision_frames_reframe_as_unit_runs(batch):
    batch = [d for d in batch if d.balance < 2**31 - 1]  # balance + 1 is an i32
    frames = wire.encode_decisions_binary(batch)
    assert wire.runs_from_decision_frames(frames) == unit_runs(batch)
    assert wire.runs_from_decision_frames(bytearray(frames)) == unit_runs(batch)


class _Capture:
    """A transport that keeps what the connection writes."""

    def __init__(self):
        self.written = bytearray()

    def write(self, data):
        self.written += data

    def take(self) -> bytes:
        data = bytes(self.written)
        self.written.clear()
        return data


def _feed(connection, data: bytes) -> bytes:
    """Deliver ``data`` as one read, the way asyncio would; the reply."""
    view = connection.get_buffer(-1)
    view[: len(data)] = data
    connection.buffer_updated(len(data))
    return connection.transport.take()


@pytest.mark.parametrize("strategy", ["generalized", "randomized"])
def test_server_replies_are_what_the_object_api_encodes(strategy):
    """The server writes records the limiter packed; frame for frame
    they are what a same-seed reference limiter's object API encodes,
    on one clock: a 700-frame ACQUIRE chunk with a STATS barrier in the
    middle, then an ``ACQUIRE_BULK`` frame mixing count-1, count-5 and
    count-1 groups — closed-form RUNs for ``generalized``, the unit-RUN
    fallback for ``randomized``. Fed in-process, one read per chunk, so
    the batch boundaries (hence the draw order) are the test's own."""
    clock = ManualClock(50.0)
    spec = dict(spend_rate=3, capacity=6, period=1.0, shards=8, seed=11, clock=clock)
    server = AdmissionServer(TokenAccountLimiter(strategy, **spec))
    reference = TokenAccountLimiter(strategy, **spec)
    connection = server.connection_class(server)
    connection.connection_made(_Capture())
    assert _feed(connection, wire.MAGIC) == wire.MAGIC

    # (a) 350 ACQUIREs, STATS, 350 ACQUIREs: two batches around a barrier
    requests = [(f"key-{i % 23}", i % 3 != 0) for i in range(700)]
    encoded = [wire.encode_request_binary(key, useful) for key, useful in requests]
    encoded.insert(350, wire.encode_command_binary(wire.OP_STATS))
    reply = _feed(connection, b"".join(encoded))
    expected = b""
    for start in (0, 350):
        keys, flags = zip(*requests[start : start + 350])
        decided = reference.try_acquire_many(keys, flags)
        expected += wire.encode_decisions_binary(decided)
        if start == 0:  # the barrier reports the first batch only
            document = dict(reference.stats(), connections=1)
            assert document["admitted"] + document["rejected"] == 350
            expected += wire.encode_status_binary(
                wire.STATUS_STATS, json.dumps(document, sort_keys=True).encode()
            )
    assert reply == expected

    # (b) one bulk frame: lone, lone, count-5, lone — after a clock step
    clock.advance(2.25)
    groups = [(b"key-1", 0, 1), (b"key-2", 1, 1), (b"key-1", 1, 5), (b"key-30", 1, 1)]
    reply = _feed(connection, wire.encode_bulk_binary(groups))
    expected = unit_runs(reference.try_acquire_many(["key-1", "key-2"], [False, True]))
    run = reference.try_acquire_run("key-1", 5, True)
    if strategy == "generalized":
        admits, rejects, balance, reason, retry = run
        expected += wire.encode_run_binary(reason, admits, rejects, balance, retry)
    else:
        assert run is None
        expected += unit_runs(reference.try_acquire_many(["key-1"] * 5, True))
    expected += unit_runs(reference.try_acquire_many(["key-30"], [True]))
    assert reply == expected
    assert server.limiter.stats() == reference.stats()
    for key in sorted({key for key, _ in requests} | {"key-30"}):
        assert server.limiter.balance(key) == reference.balance(key), key


def test_worker_answers_malformed_bulk_with_error_frame():
    async def scenario():
        server = await _start_server()
        reader, writer = await binary_client(server.port)
        # a zero-count group is invalid; the worker answers an ERROR
        # frame and keeps serving
        bogus = bytes((wire.OP_ACQUIRE_BULK, 1, 0, 1, ord("k"), 0, 0))
        writer.write(
            wire._LENGTH.pack(len(bogus)) + bogus
            + wire.encode_request_binary("k")
        )
        await writer.drain()
        frames = await read_frames(reader, 2)
        assert frames[0][0] == wire.STATUS_ERROR
        assert frames[1][0] == wire.STATUS_DECISION
        writer.close()
        await server.close()

    _run(scenario())
