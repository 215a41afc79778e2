"""The server's grouped road answers exactly what one frame at a time would.

A run of same-size ``ACQUIRE`` frames is read as NumPy rows; where the
strategy has a closed form, identical frames are decided once per key
(``try_acquire_runs``) and expanded back to request order. Every test
here drives the server protocol in-process on a :class:`ManualClock` and
holds it to a same-seed reference limiter fed the same frames the way the
frame-by-frame drain feeds it — one ``try_acquire_frames`` batch per
drain between barriers, one per bulk group — and requires the same
replies, counters, per-key account state in LRU order and owed uniforms.
The ``grouped`` counter says which road a case took.
"""

import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.strategies import Strategy
from repro.experiments.scale import current_scale
from repro.registry import strategies as strategy_registry
from repro.serve import AdmissionServer, ManualClock, TokenAccountLimiter, wire
from repro.serve.connection import _ROWS_MIN as ROWS

PERIOD = 1.0

STRATEGY_PARAMS = {
    "proactive": {},
    "simple": {"capacity": 5},
    "generalized": {"spend_rate": 3, "capacity": 6},
    "randomized": {"spend_rate": 3, "capacity": 6},
    "graded-generalized": {"spend_rate": 3, "capacity": 6},
    "graded-randomized": {"spend_rate": 3, "capacity": 6},
    "reactive": {},
}

EXAMPLES = 60 if current_scale().name == "ci" else 400


class FullThenReactive(Strategy):
    """Admits proactively at a full account and reactively below it, so
    one key's walk at one instant changes admit reason."""

    name = "full-then-reactive"
    token_capacity = 3

    def proactive(self, balance):
        return 1.0 if balance >= 3 else 0.0

    def reactive(self, balance, useful):
        return 1.0 if 0 < balance < 3 else 0.0


def make_limiter(name, clock, **table):
    strategy = FullThenReactive() if name == FullThenReactive.name else name
    params = STRATEGY_PARAMS.get(name, {})
    return TokenAccountLimiter(
        strategy, period=PERIOD, clock=clock, seed=5, **table, **params
    )


def acquire(raw: bytes, useful: bool = True) -> bytes:
    """An ``ACQUIRE`` frame for raw key bytes (which need not be UTF-8)."""
    flags = wire.FLAG_USEFUL if useful else 0
    return wire.ACQUIRE_HEADER.pack(2 + len(raw), wire.OP_ACQUIRE, flags) + raw


class _Capture:
    def __init__(self):
        self.written = bytearray()

    def write(self, data):
        self.written += data

    def take(self) -> bytes:
        data = bytes(self.written)
        self.written.clear()
        return data


class Twin:
    """A server connection and its reference, on one clock."""

    def __init__(self, name, **table):
        self.clock = ManualClock(100.0)
        self.limiter = make_limiter(name, self.clock, **table)
        self.reference = make_limiter(name, self.clock, **table)
        server = AdmissionServer(self.limiter)
        self.connection = server.connection_class(server)
        self.connection.connection_made(_Capture())
        assert self._deliver(wire.MAGIC) == wire.MAGIC
        self.pending = bytearray()

    def _deliver(self, data: bytes) -> bytes:
        view = self.connection.get_buffer(-1)
        view[: len(data)] = data
        self.connection.buffer_updated(len(data))
        return self.connection.transport.take()

    def feed(self, data: bytes):
        """One read on both sides: the server's reply and the reference's,
        each as a list of comparable items."""
        return normalize(self._deliver(data)), self._reference(data)

    def _reference(self, data: bytes):
        """The drain frame by frame: ACQUIREs batch until a barrier."""
        self.pending += data
        limiter = self.reference
        items, keys, flags = [], [], []

        def flush():
            if keys:
                items.extend(decisions(limiter.try_acquire_frames(keys, flags)))
                keys.clear()
                flags.clear()

        offset = 0
        while len(self.pending) - offset >= 2:
            length = int.from_bytes(self.pending[offset : offset + 2], "little")
            if offset + 2 + length > len(self.pending):
                break
            payload = bytes(self.pending[offset + 2 : offset + 2 + length])
            offset += 2 + length
            try:
                if length >= 7 and payload[0] == wire.OP_ACQUIRE_BULK:
                    groups = wire.parse_bulk_binary(payload)
                    flush()
                    now = limiter._clock()
                    for key, useful, count in groups:
                        frames = limiter.try_acquire_frames([key] * count, useful, now)
                        items.extend(decisions(frames))
                    continue
                command, key, useful = wire.parse_request_binary(payload)
            except ValueError as error:
                flush()
                items.append(("E", str(error)))
                continue
            if command == "A":
                keys.append(key)
                flags.append(useful)
                continue
            flush()
            if command == "S":
                items.append(("S", stats_document(limiter.stats(), connections=1)))
            else:
                items.append(("P",))
        flush()
        del self.pending[:offset]
        return items

    def assert_same_state(self):
        served, reference = self.limiter, self.reference
        for field in ("admitted", "rejected", "keys", "evictions"):
            assert served.stats()[field] == reference.stats()[field], field
        assert account_states(served) == account_states(reference)
        assert served._np_rng_skipped == reference._np_rng_skipped


def decisions(frames) -> list:
    size = wire.DECISION_FRAME_SIZE
    cuts = range(0, len(frames), size)
    return [("D", bytes(frames[at + 2 : at + size])) for at in cuts]


def stats_document(document, **extra):
    document = dict(document, **extra)
    document.pop("grouped")  # the reference never groups
    return document


def normalize(reply: bytes) -> list:
    """Reply frames as items; RUN frames expanded into their decisions."""
    payloads, consumed = wire.split_frames(bytearray(reply))
    assert consumed == len(reply)
    items, runs = [], []
    for payload in payloads + [b""]:
        if payload[:1] == bytes((wire.STATUS_RUN,)):
            runs.append(len(payload).to_bytes(2, "little") + payload)
            continue
        if runs:
            records = np.frombuffer(b"".join(runs), wire.RUN_DTYPE)
            items.extend(decisions(wire.expand_runs(records).tobytes()))
            runs = []
        if not payload:
            continue
        status = payload[0]
        if status == wire.STATUS_DECISION:
            items.append(("D", payload))
        elif status == wire.STATUS_STATS:
            items.append(("S", stats_document(json.loads(payload[1:]))))
        elif status == wire.STATUS_ERROR:
            items.append(("E", payload[1:].decode()))
        else:
            assert status == wire.STATUS_PONG
            items.append(("P",))
    return items


def account_states(limiter):
    """Per shard, in LRU order: every key's whole account state."""
    return [
        [
            (
                key,
                state.account.balance,
                state.account.granted,
                state.account.spent,
                state.ticks_granted,
                state.anchor,
                state.last_now,
                state.last_proactive,
            )
            for key, state in shard.entries.items()
        ]
        for shard in limiter._table.shards
    ]


def run_frames(raw_keys, repeats, useful=True) -> bytes:
    """``repeats`` rounds over ``raw_keys``: a repeat-heavy run."""
    return b"".join(acquire(raw, useful) for _ in range(repeats) for raw in raw_keys)


def width_keys(width: int, count: int, prefix: bytes = b"k") -> list:
    return [prefix + str(i).zfill(width - len(prefix)).encode() for i in range(count)]


# ----------------------------------------------------------------------
# one case per road
# ----------------------------------------------------------------------
def test_every_registered_strategy_is_covered():
    assert set(STRATEGY_PARAMS) == set(strategy_registry.names())


@pytest.mark.parametrize("name", sorted(STRATEGY_PARAMS) + [FullThenReactive.name])
def test_repeat_heavy_run_is_grouped_where_the_closed_form_holds(name):
    twin = Twin(name, shards=8)
    chunk = run_frames(width_keys(6, 8), ROWS // 8 + 2)  # 8 keys
    for step in (0.0, 0.4, 2.5, 0.0, 7.0):
        twin.clock.advance(step)
        served, reference = twin.feed(chunk)
        assert served == reference
    twin.assert_same_state()
    expected = 5 * (ROWS + 16) if twin.limiter._run_closed_form else 0
    assert twin.limiter.grouped == expected
    assert twin.limiter._run_closed_form == (
        name in ("simple", "generalized", "graded-generalized", FullThenReactive.name)
    )


def frames(raw_keys, flags=lambda i: True) -> bytes:
    return b"".join(acquire(raw, flags(i)) for i, raw in enumerate(raw_keys))


def both_strides() -> bytes:
    """A stride change mid-run: two row runs back to back."""
    rows = ROWS // 4
    return run_frames(width_keys(4, 4), rows) + run_frames(width_keys(5, 4), rows)


def lru_order() -> bytes:
    """Last occurrences in another order than first ones."""
    return (
        run_frames([b"k1", b"k2"], ROWS // 4)
        + run_frames([b"k3"], ROWS // 4)
        + run_frames([b"k1"], ROWS // 4)
    )


NON_ASCII = ["é1".encode(), "é2".encode(), "ü3".encode()]

#: chunk -> decisions the grouped road answers for it
ROADS = {
    # every key once: too many groups for the rows
    "distinct": (frames(width_keys(6, ROWS)), 0),
    # one key under both flags interleaves on one state
    "mixed-flags": (frames([b"k00000"] * ROWS, lambda i: i % 3 != 0), 0),
    # a flag per key is a flag per group
    "flag-per-key": (frames(width_keys(2, 4) * (ROWS // 4), lambda i: i % 4 < 2), ROWS),
    # invalid UTF-8 that decodes to one key ("replace"): two frames, one state
    "invalid-utf8": (frames([b"\xffk0", b"\xfek0"] * (ROWS // 2)), 0),
    # valid non-ASCII keys are decoded per group
    "non-ascii": (run_frames(NON_ASCII, ROWS // 3 + 1), 3 * (ROWS // 3 + 1)),
    "lru": (lru_order(), ROWS),
    "stride": (both_strides(), 2 * ROWS),
    # too short a run to be read as rows
    "short": (frames(width_keys(4, 4) * ROWS)[: (ROWS - 1) * 8], 0),
    # loadgen's names: key-10 … key-63 come ROWS frames apart by size,
    # but key-0 … key-9 are shorter and cut every run of rows short
    "key-n": (frames([f"key-{i % 64}".encode() for i in range(4 * 64)]), 0),
}


@pytest.mark.parametrize("chunk, grouped", ROADS.values(), ids=ROADS.keys())
def test_which_road_a_chunk_takes(chunk, grouped):
    twin = Twin("generalized", shards=1)
    for step in (0.0, 1.5):
        twin.clock.advance(step)
        served, reference = twin.feed(chunk)
        assert served == reference
    twin.assert_same_state()
    assert twin.limiter.grouped == 2 * grouped


@pytest.mark.parametrize("run", [10, ROWS - 1, ROWS, 3 * ROWS])
def test_rows_end_at_the_first_other_frame(run):
    chunk = bytearray(frames(width_keys(4, run) + [b"k12345"] + width_keys(4, 9)))
    rows = wire.acquire_rows(chunk, 0, len(chunk), 6, ROWS)
    assert len(rows) == run
    assert rows[:, 4:].tobytes() == b"".join(width_keys(4, run))


def test_a_connection_sorts_no_stretch_after_a_sparse_one_that_cannot_group(
    monkeypatch,
):
    sorts = []
    group_rows = wire.group_rows

    def counted(rows):
        sorts.append(len(rows))
        return group_rows(rows)

    monkeypatch.setattr(wire, "group_rows", counted)
    twin = Twin("generalized", shards=8)
    sparse = frames(width_keys(6, ROWS))
    dense = run_frames(width_keys(6, 8), ROWS // 8)
    for chunk, sorted_ in [
        (sparse, 1),  # sorted, and too many groups
        (sparse, 1),  # counted by a set instead
        (dense, 2),
        (sparse, 3),  # the last stretch grouped: sorted again
        (sparse, 3),
        (sparse, 3),
        (dense, 4),
    ]:
        twin.clock.advance(0.75)
        served, reference = twin.feed(chunk)
        assert served == reference
        assert len(sorts) == sorted_
    twin.assert_same_state()
    assert twin.limiter.grouped == 2 * ROWS


def test_a_table_that_would_evict_mid_batch_takes_the_frame_road():
    twin = Twin("generalized", shards=2, max_keys=8)
    chunk = run_frames(width_keys(6, 6), ROWS // 6 + 1)  # 6 keys, 4-key shards
    for step in (0.0, 1.0, 0.5):
        twin.clock.advance(step)
        served, reference = twin.feed(chunk)
        assert served == reference
    twin.assert_same_state()
    assert twin.limiter.stats()["evictions"] > 0
    assert twin.limiter.grouped == 0


def test_barriers_inside_a_run_split_it():
    twin = Twin("simple", shards=4)
    run = run_frames(width_keys(6, 4), ROWS // 4)
    bad = wire.ACQUIRE_HEADER.pack(2, wire.OP_ACQUIRE, 1)  # no key: an ERROR
    chunk = (
        run
        + wire.encode_command_binary(wire.OP_STATS)
        + run
        + wire.encode_command_binary(wire.OP_PING)
        + run
        + bad
        + run
    )
    served, reference = twin.feed(chunk)
    assert served == reference
    twin.assert_same_state()
    assert twin.limiter.grouped == 4 * ROWS
    # the STATS document counts the decisions ahead of it, grouped ones too
    reply_stats = [item for item in served if item[0] == "S"]
    assert reply_stats[0][1]["admitted"] + reply_stats[0][1]["rejected"] == ROWS


def test_a_frame_cut_across_two_reads():
    twin = Twin("generalized", shards=8)
    chunk = run_frames(width_keys(6, 4), ROWS // 2)  # 2 × ROWS frames of 10 bytes
    for cut in (ROWS * 10 + 5, 7, len(chunk) - 5):
        served, reference = twin.feed(chunk[:cut])
        assert served == reference
        served, reference = twin.feed(chunk[cut:])
        assert served == reference
        twin.clock.advance(1.25)
    twin.assert_same_state()
    # the first cut leaves two runs of ROWS, the last one frame short of all
    assert twin.limiter.grouped == 2 * ROWS + 2 * ROWS + (2 * ROWS - 1)


def test_a_bulk_group_that_changes_reason_gets_two_runs():
    twin = Twin(FullThenReactive.name, shards=1)
    bulk = wire.encode_bulk_binary([(b"a", 1, 5), (b"b", 1, 2), (b"a", 0, 2)])
    reply = twin._deliver(bulk)
    runs = np.frombuffer(reply, wire.RUN_DTYPE)
    # "a" walks 3 → 0: proactive at 3, reactive at 2 and 1, then rejects
    assert [
        (wire.REASON_NAMES[reason], admits, rejects)
        for reason, admits, rejects in runs[["reason", "admits", "rejects"]].tolist()
    ] == [
        ("proactive", 1, 0),
        ("reactive", 2, 2),
        ("proactive", 1, 0),
        ("reactive", 1, 0),
        ("exhausted", 0, 2),
    ]
    assert normalize(reply) == twin._reference(bulk)
    twin.assert_same_state()
    assert twin.limiter.grouped == 0  # bulk frames are not the grouped road


# ----------------------------------------------------------------------
# everything at once
# ----------------------------------------------------------------------
KEY_BYTES = [b"aa", b"bb", b"cc", "é".encode(), b"\xff\xfe", b"\xfe\xff", b"dd"]


@st.composite
def segments(draw):
    kind = draw(st.sampled_from(["repeats", "repeats", "distinct", "barrier", "bulk"]))
    if kind == "barrier":
        return draw(
            st.sampled_from(
                [
                    wire.encode_command_binary(wire.OP_STATS),
                    wire.encode_command_binary(wire.OP_PING),
                    wire.ACQUIRE_HEADER.pack(2, wire.OP_ACQUIRE, 1),
                    bytes((1, 0, 9)),
                ]
            )
        )
    if kind == "bulk":
        groups = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(KEY_BYTES),
                    st.sampled_from([0, 1]),
                    st.integers(1, 9),
                ),
                min_size=1,
                max_size=4,
            )
        )
        return wire.encode_bulk_binary(groups)
    width = draw(st.integers(1, 3))
    count = draw(st.integers(1, ROWS + 40))
    if kind == "distinct":
        raws = [b"x" * width + i.to_bytes(2, "little") for i in range(count)]
    else:
        pool = draw(st.lists(st.sampled_from(KEY_BYTES), min_size=1, max_size=4))
        order = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        raws = [pool[i % len(pool)] + b"-" * width for i in order]
    flags = draw(st.sampled_from(["useful", "useless", "mixed", "per-key"]))
    return b"".join(acquire(raw, flag_of(flags, i, raw)) for i, raw in enumerate(raws))


def flag_of(flags: str, position: int, raw: bytes) -> bool:
    if flags == "mixed":
        return position % 3 != 0
    if flags == "per-key":
        return raw[0] % 2 == 0
    return flags == "useful"


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    name=st.sampled_from(sorted(STRATEGY_PARAMS) + [FullThenReactive.name]),
    table=st.sampled_from(
        [dict(shards=1, max_keys=64), dict(shards=8), dict(shards=2, max_keys=6)]
    ),
    reads=st.lists(
        st.tuples(
            st.lists(segments(), min_size=1, max_size=6),
            st.floats(0.0, 2.5),
            st.integers(0, 40),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_grouped_road_matches_frame_by_frame(name, table, reads):
    twin = Twin(name, **table)
    acquires = 0
    for parts, step, cut in reads:
        twin.clock.advance(step)
        chunk = b"".join(parts)
        for data in (chunk[:cut], chunk[cut:]):
            served, reference = twin.feed(data)
            assert served == reference
        acquires += chunk.count(bytes((wire.OP_ACQUIRE,)))  # an upper bound
    twin.assert_same_state()
    event("grouped road taken" if twin.limiter.grouped else "frame road only")
    if not twin.limiter._run_closed_form:
        assert twin.limiter.grouped == 0
    assert twin.limiter.grouped <= acquires
