"""A worker decides every bulk frame of a read at once, and answers the same.

A cluster router writes a worker its repeats as ``ACQUIRE_BULK`` frames.
The worker's connection keeps the groups of consecutive bulk frames and
decides them with one ``try_acquire_runs`` call at the next barrier (an
``ACQUIRE`` batch, any other frame, the end of the walk). The tests here
drive two server connections in-process on one :class:`ManualClock` —
one fed each read whole, one fed the same frames one per read — and
require the same reply bytes, counters and account state. The router's
side of that stride (:class:`~repro.serve.cluster._WorkerLink`) parses
it once however it arrives, and the cluster's workers run in the batch
scheduling class.
"""

from __future__ import annotations

import asyncio
import errno
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scale import current_scale
from repro.serve import AdmissionServer, ManualClock, ServeConfig, cluster, wire
from tests.test_serve_cluster import deliver, fake_link, run_stream
from tests.test_serve_grouped import (
    STRATEGY_PARAMS,
    FullThenReactive,
    _Capture,
    account_states,
    acquire,
    make_limiter,
)

EXAMPLES = 60 if current_scale().name == "ci" else 400
STRATEGIES = sorted(STRATEGY_PARAMS) + [FullThenReactive.name]
TABLES = [dict(shards=8), dict(shards=2, max_keys=6)]

STATS = wire.encode_command_binary(wire.OP_STATS)
PING = wire.encode_command_binary(wire.OP_PING)
#: bulk frames a worker answers with an ERROR: a zero count, a key cut short
BAD_BULK = (
    bytes((7, 0, wire.OP_ACQUIRE_BULK))
    + wire.BULK_GROUP_HEAD.pack(1, wire.FLAG_USEFUL)
    + b"a"
    + wire.BULK_GROUP_COUNT.pack(0),
    bytes((7, 0, wire.OP_ACQUIRE_BULK)) + wire.BULK_GROUP_HEAD.pack(9, 0) + b"abc",
)


def bulk(*groups) -> bytes:
    return wire.encode_bulk_binary(groups)


class Server:
    """One server connection, fed reads the way its transport would."""

    def __init__(self, name, clock, **table):
        self.limiter = make_limiter(name, clock, **table)
        server = AdmissionServer(self.limiter)
        self.connection = server.connection_class(server)
        self.connection.connection_made(_Capture())
        assert self.read(wire.MAGIC) == wire.MAGIC

    def read(self, data: bytes) -> bytes:
        view = self.connection.get_buffer(-1)
        view[: len(data)] = data
        self.connection.buffer_updated(len(data))
        return self.connection.transport.take()


def answered_both_ways(name, table, reads):
    """Each read whole to one server and frame by frame to its twin; the
    whole-read server's limiter."""
    clock = ManualClock(100.0)
    whole, single = Server(name, clock, **table), Server(name, clock, **table)
    for frames, step in reads:
        clock.advance(step)
        assert whole.read(b"".join(frames)) == b"".join(map(single.read, frames))
    for field in ("admitted", "rejected", "keys", "evictions", "grouped"):
        assert whole.limiter.stats()[field] == single.limiter.stats()[field], field
    assert account_states(whole.limiter) == account_states(single.limiter)
    assert whole.limiter._np_rng_skipped == single.limiter._np_rng_skipped
    return whole.limiter


#: one read each: its frames in order
READS = {
    "one": [bulk((b"a", 1, 3), (b"b", 1, 2))],
    # a key in several frames is one state, decided in frame order
    "repeated-key": [
        bulk((b"a", 1, 3), (b"b", 1, 2)),
        bulk((b"a", 1, 4)),
        bulk((b"b", 0, 2), (b"a", 1, 1), (b"a", 0, 2)),
    ],
    "malformed-between": [bulk((b"a", 1, 5)), BAD_BULK[0], bulk((b"a", 1, 2))],
    "truncated-between": [bulk((b"b", 1, 2)), BAD_BULK[1], bulk((b"b", 0, 3))],
    "stats-and-ping-between": [
        bulk((b"a", 1, 2)),
        STATS,
        bulk((b"a", 1, 3), (b"c", 1, 2)),
        PING,
        bulk((b"c", 0, 4)),
    ],
    "acquires-between": [bulk((b"a", 1, 2)), acquire(b"a"), bulk((b"a", 1, 3))],
    "four": [bulk((bytes((97 + i,)), i % 2, 2 + i), (b"z", 1, 2)) for i in range(4)],
}


@pytest.mark.parametrize("table", TABLES, ids=["8-shards", "evicting"])
@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize("frames", READS.values(), ids=READS.keys())
def test_a_read_of_bulk_frames_answers_as_one_frame_per_read(frames, name, table):
    answered_both_ways(name, table, [(frames, 0.0), (frames, 0.6), (frames, 2.5)])


KEYS = [b"a", b"b", b"c", "é".encode(), b"\xff", b"\xfe"]

groups = st.tuples(st.sampled_from(KEYS), st.sampled_from([0, 1]), st.integers(1, 9))
any_frame = st.one_of(
    st.lists(groups, min_size=1, max_size=4).map(lambda found: bulk(*found)),
    st.sampled_from([STATS, PING, *BAD_BULK, acquire(b"a"), acquire(b"\xff", False)]),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    name=st.sampled_from(STRATEGIES),
    table=st.sampled_from(TABLES),
    reads=st.lists(
        st.tuples(st.lists(any_frame, min_size=1, max_size=6), st.floats(0.0, 2.5)),
        min_size=1,
        max_size=4,
    ),
)
def test_any_read_answers_as_one_frame_per_read(name, table, reads):
    answered_both_ways(name, table, reads)


def test_a_read_of_bulk_frames_is_one_try_acquire_runs_call(monkeypatch):
    server = Server("generalized", ManualClock(100.0), shards=8)
    limiter = server.limiter
    calls = []
    runs = limiter.try_acquire_runs

    def spy(keys, counts, useful):
        calls.append(len(keys))
        return runs(keys, counts, useful)

    monkeypatch.setattr(limiter, "try_acquire_runs", spy)
    frames = [bulk((b"a", 1, 3), (b"b", 1, 2)), bulk((b"a", 1, 2)), bulk((b"c", 0, 4))]
    server.read(b"".join(frames))
    assert calls == [4]  # one frame at a time made three calls: [2, 1, 1]
    server.read(frames[0] + STATS + frames[1] + frames[2])
    assert calls == [4, 2, 2]  # the STATS frame is a barrier


def test_a_worker_link_parses_a_stride_that_arrives_in_pieces_once(monkeypatch):
    parses = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def frombuffer(self, *args, **kwargs):
            parses.append(args)
            return np.frombuffer(*args, **kwargs)

    monkeypatch.setattr(cluster, "np", CountingNumpy())
    one_each = run_stream([(1, 3, 0, 9, 0.0)] * 8)  # 8 bulk records, 24 decisions
    two_for_one = run_stream([(1, 2, 0, 9, 0.0)] * 7 + [(1, 1, 0, 2, 0.0)] * 2)

    async def read(stride, owed):
        link = fake_link()
        feeder = asyncio.get_running_loop().create_task(deliver(link, stride, 20))
        records = await link.runs(owed, 8)
        await feeder
        return records.tobytes()

    assert asyncio.run(read(one_each, 24)) == one_each
    assert len(parses) == 1
    # a record answered by two RUN frames costs one more pass
    assert asyncio.run(read(two_for_one, 16)) == two_for_one
    assert len(parses) == 3


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH here")
def test_cluster_workers_run_in_the_batch_class(monkeypatch):
    handles, seen = [], {}
    spawn = cluster.spawn_worker

    def spawn_worker(config, index):
        handles.append(spawn(config, index))
        return handles[-1]

    def announce(line):
        # every worker has answered the router's hello: it is serving
        seen["workers"] = [os.sched_getscheduler(h.process.pid) for h in handles]
        seen["router"] = os.sched_getscheduler(0)

    monkeypatch.setattr(cluster, "spawn_worker", spawn_worker)
    before = os.sched_getscheduler(0)
    config = ServeConfig(strategy="simple", capacity=3, workers=2)
    cluster.serve_cluster(config, duration=0, announce=announce)
    assert seen["workers"] == [os.SCHED_BATCH] * 2
    assert seen["router"] == before == os.sched_getscheduler(0)


@pytest.mark.skipif(not hasattr(os, "sched_param"), reason="no sched_param here")
def test_a_worker_keeps_its_class_where_the_batch_class_is_refused(monkeypatch):
    asked = []

    def refuse(pid, policy, param):
        asked.append(policy)
        raise OSError(errno.EPERM, "refused")

    monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
    monkeypatch.setattr(os, "SCHED_BATCH", 3, raising=False)
    cluster._batch_class()
    assert asked == [3]
    monkeypatch.delattr(os, "SCHED_BATCH")
    cluster._batch_class()
    assert asked == [3]
