"""Per-layer probes: each module's hot public calls, timed from outside.

Every probe runs its calls inside :class:`perf.spans.Recorder` spans; a
layer's figure is the median, over at least :data:`REPEATS` spans, of
the span's *self* time per item. Two chains replay what the serving
processes do per chunk, with each layer as a child span:

* the **drain chain** — what one ``AdmissionServer`` wake-up does with a
  canned client chunk: ``serve.wire.parse`` → ``serve.limiter.batch`` →
  ``serve.wire.encode`` under a ``serve.server.drain`` parent;
* the **route chain** — what router and worker do per coalesced batch:
  ``serve.ring.owner`` → ``serve.wire.bulk`` → ``serve.limiter.run`` →
  ``serve.wire.run`` under ``serve.cluster.route``.

The probes are workload-independent: they say what a layer costs per
item, the workloads say how many items each layer sees.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict

import numpy as np

from perf import ROOT
from perf.client import DECISION_DTYPE, key_names
from perf.spans import Recorder
from repro.core.account import TokenAccount
from repro.core.strategies import make_strategy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import execute_backend
from repro.overlay.kout import kout_adjacency
from repro.serve import wire
from repro.serve.clock import ManualClock
from repro.serve.limiter import TokenAccountLimiter
from repro.serve.ring import HashRing, stable_hash
from repro.serve.table import ShardedTable
from repro.sim.engine import Simulator
from repro.store import ResultStore

#: spans per probe (the issue asks for medians of at least seven)
REPEATS = 9

#: the serving parameters every serve workload starts its server with
STRATEGY = dict(strategy="generalized", spend_rate=5, capacity=50)
PERIOD = 0.0005
TABLE = dict(shards=8, max_keys=65536)

BATCH = 256
GROUPS = 128  # bulk groups per frame: 128 × 16 bytes stays under MAX_FRAME

#: metric name -> (span name, seconds-to-unit factor)
SPAN_METRICS = {
    "core.kernel.decide_many_ns": ("core.kernel.decide_many", 1e9),
    "core.kernel.decide_one_ns": ("core.kernel.decide_one", 1e9),
    "serve.limiter.scalar_us": ("serve.limiter.scalar", 1e6),
    "serve.limiter.scalar_wide_us": ("serve.limiter.scalar_wide", 1e6),
    "serve.limiter.batch_us": ("serve.limiter.batch", 1e6),
    "serve.limiter.batch1_us": ("serve.limiter.batch1", 1e6),
    "serve.limiter.batch_randomized_us": ("serve.limiter.batch_randomized", 1e6),
    "serve.limiter.run_us": ("serve.limiter.run", 1e6),
    "serve.limiter.run1_us": ("serve.limiter.run1", 1e6),
    "serve.table.hit_us": ("serve.table.hit", 1e6),
    "serve.table.evict_us": ("serve.table.evict", 1e6),
    "serve.wire.parse_us": ("serve.wire.parse", 1e6),
    "serve.wire.encode_decisions_us": ("serve.wire.encode", 1e6),
    "serve.wire.bulk_us": ("serve.wire.bulk", 1e6),
    "serve.wire.run_us": ("serve.wire.run", 1e6),
    "serve.wire.client_decode_us": ("serve.wire.client_decode", 1e6),
    "serve.ring.owner_us": ("serve.ring.owner", 1e6),
    "serve.ring.stable_hash_us": ("serve.ring.stable_hash", 1e6),
    "sim.engine.event_ns": ("sim.engine.event", 1e9),
    "overlay.kout_build_ms": ("overlay.kout_build", 1e3),
    "store.key_us": ("store.key", 1e6),
    "store.put_us": ("store.put", 1e6),
    "store.get_us": ("store.get", 1e6),
}


def make_limiter(strategy: str = STRATEGY["strategy"], **table) -> "tuple":
    """A limiter with the serve workloads' parameters on a manual clock."""
    clock = ManualClock()
    limiter = TokenAccountLimiter(
        strategy,
        spend_rate=STRATEGY["spend_rate"],
        capacity=STRATEGY["capacity"],
        period=PERIOD,
        clock=clock,
        seed=1,
        **{**TABLE, **table},
    )
    return limiter, clock


# ----------------------------------------------------------------------
# the two chains
# ----------------------------------------------------------------------
def drain_chain(recorder: Recorder, repeats: int = REPEATS) -> None:
    """One server wake-up per repeat over a canned 256-frame client chunk."""
    keys = key_names(64, 1)
    chunk = bytearray(
        b"".join(wire.encode_request_binary(keys[i % 64]) for i in range(BATCH))
    )
    limiter, clock = make_limiter()
    for batch in range(repeats):
        clock.advance(PERIOD)
        with recorder.span("serve.server.drain", batch, BATCH):
            with recorder.span("serve.wire.parse", batch, BATCH):
                payloads, _ = wire.split_frames(chunk)
                requests = [wire.parse_request_binary(p) for p in payloads]
            with recorder.span("serve.limiter.batch", batch, BATCH):
                decisions = limiter.try_acquire_many([r[1] for r in requests], True)
            with recorder.span("serve.wire.encode", batch, BATCH):
                reply = wire.encode_decisions_binary(decisions)
        with recorder.span("serve.wire.client_decode", batch, BATCH):
            int(np.frombuffer(reply, dtype=DECISION_DTYPE)["admitted"].sum())


def route_chain(recorder: Recorder, count: int, repeats: int = REPEATS) -> None:
    """Router + worker per coalesced batch of 128 groups of ``count`` requests."""
    suffix = "" if count > 1 else "1"
    keys = [key.encode() for key in key_names(GROUPS * repeats, 2)]
    ring = HashRing(("w0", "w1"), replicas=96, seed=1)
    limiter, clock = make_limiter()
    for batch in range(repeats):
        clock.advance(PERIOD)
        mine = keys[batch * GROUPS : (batch + 1) * GROUPS]  # fresh: no memo helps
        with recorder.span("serve.cluster.route", batch, GROUPS):
            with recorder.span("serve.ring.owner", batch, GROUPS):
                for key in mine:
                    ring.owner(key)
            with recorder.span("serve.wire.bulk", batch, GROUPS):
                frame = wire.encode_bulk_binary(
                    [(key, wire.FLAG_USEFUL, count) for key in mine]
                )
                groups = wire.parse_bulk_binary(memoryview(frame)[2:])
            with recorder.span("serve.limiter.run" + suffix, batch, GROUPS * count):
                now = clock()
                runs = [
                    limiter.try_acquire_run(key, n, useful, now=now)
                    for key, useful, n in groups
                ]
            with recorder.span("serve.wire.run", batch, GROUPS):
                for admits, rejects, balance, reason, retry in runs:
                    wire.encode_run_binary(reason, admits, rejects, balance, retry)


# ----------------------------------------------------------------------
# single-call probes
# ----------------------------------------------------------------------
def kernel_probe(recorder: Recorder) -> None:
    kernel = make_strategy(
        STRATEGY["strategy"], spend_rate=5, capacity=50
    ).decision_kernel
    rng = np.random.default_rng(1)
    balances = rng.integers(0, 51, size=4096)
    calls = 2000
    for batch in range(REPEATS):
        with recorder.span("core.kernel.decide_many", batch, len(balances)):
            kernel.decide_many(balances, True, rng)
        with recorder.span("core.kernel.decide_one", batch, calls):
            for balance in range(calls):
                kernel.decide_one_drawn(balance % 51, True, 0.5, 0.5)


def limiter_probe(recorder: Recorder) -> None:
    keys = key_names(BATCH, 3)
    limiter, clock = make_limiter()
    randomized, random_clock = make_limiter("randomized")
    for batch in range(REPEATS):
        clock.advance(PERIOD)
        random_clock.advance(PERIOD)
        with recorder.span("serve.limiter.scalar", batch, 4 * 64):
            for _ in range(4):
                for key in keys[:64]:
                    limiter.try_acquire(key)
        with recorder.span("serve.limiter.batch1", batch, 64):
            for key in keys[:64]:
                limiter.try_acquire_many((key,))
        with recorder.span("serve.limiter.batch_randomized", batch, BATCH):
            randomized.try_acquire_many(keys)
    # 100k distinct keys round-robin through a 65 536-key table: once
    # the table is full every call is a miss that evicts the oldest key.
    wide = key_names(100_000, 4)
    limiter, clock = make_limiter()
    for key in wide[: TABLE["max_keys"]]:
        limiter.try_acquire(key)
    step = (len(wide) - TABLE["max_keys"]) // REPEATS
    for batch in range(REPEATS):
        clock.advance(PERIOD)
        start = TABLE["max_keys"] + batch * step
        with recorder.span("serve.limiter.scalar_wide", batch, step):
            for key in wide[start : start + step]:
                limiter.try_acquire(key)


def table_probe(recorder: Recorder) -> None:
    def account() -> TokenAccount:
        return TokenAccount(initial=50, capacity=50)

    keys = key_names(4096, 5)
    resident = ShardedTable(shards=8, max_keys=65536)
    full = ShardedTable(shards=8, max_keys=1024)
    for table in (resident, full):
        for key in keys:
            table.shard_for(key).get_or_create(key, account, 0.0)
    for batch in range(REPEATS):
        with recorder.span("serve.table.hit", batch, len(keys)):
            for key in keys:
                resident.shard_for(key).get_or_create(key, account, 0.0)
        with recorder.span("serve.table.evict", batch, len(keys)):
            for key in keys:  # a 4096-key cycle over 1024 slots always misses
                full.shard_for(key).get_or_create(key, account, 0.0)


def hash_probe(recorder: Recorder) -> None:
    keys = [key.encode() for key in key_names(2048, 6)]
    for batch in range(REPEATS):
        with recorder.span("serve.ring.stable_hash", batch, len(keys)):
            for key in keys:
                stable_hash(key, 1)


def engine_probe(recorder: Recorder, timers: int = 200, events: int = 50_000) -> None:
    """Self-rescheduling no-op timers: the event loop with no application."""
    for batch in range(REPEATS):
        sim = Simulator()

        def tick(slot: int) -> None:
            sim.schedule(1.0, tick, slot)

        for slot in range(timers):
            sim.schedule(slot / timers, tick, slot)
        with recorder.span("sim.engine.event", batch, events):
            sim.run(max_events=events)


def overlay_probe(recorder: Recorder, n: int) -> None:
    for batch in range(REPEATS):
        with recorder.span("overlay.kout_build", batch, 1):
            kout_adjacency(n, 20, batch)


def store_probe(recorder: Recorder) -> float:
    """Key, write and read one small result; returns the entry's size in bytes."""
    config = ExperimentConfig(
        app="push-gossip", strategy="simple", capacity=10, n=100, periods=10
    )
    result = execute_backend(config)
    with tempfile.TemporaryDirectory(prefix="perf-store-", dir=ROOT) as root:
        store = ResultStore(Path(root))
        for batch in range(REPEATS):
            cell = config.with_overrides(seed=batch + 1)
            with recorder.span("store.key", batch, 1):
                store.key_for(cell)
            with recorder.span("store.put", batch, 1):
                store.put(cell, result)
            with recorder.span("store.get", batch, 1):
                store.get(cell)
        sizes = [path.stat().st_size for path in store.entries_dir.glob("*.pkl")]
        return statistics.median(sizes)


# ----------------------------------------------------------------------
def trace_overhead_share(pairs: int = 9, repeats: int = 40) -> float:
    """How much longer the drain chain takes with spans recorded than without.

    The median over back-to-back (untraced, traced) pairs: the cost of a
    span is far below this box's drift between two timings, which only
    pairing and a median keep out of the figure.
    """
    shares = []
    for _ in range(pairs):
        seconds = {}
        for enabled in (False, True):
            started = perf_counter()
            drain_chain(Recorder(enabled=enabled), repeats)
            seconds[enabled] = perf_counter() - started
        shares.append(seconds[True] / seconds[False] - 1.0)
    return statistics.median(shares)


def probe(recorder: Recorder, overlay_n: int) -> Dict[str, float]:
    """Run every probe; the per-layer metrics that do not depend on a workload."""
    drain_chain(recorder)
    route_chain(recorder, count=32)
    route_chain(recorder, count=1)
    kernel_probe(recorder)
    limiter_probe(recorder)
    table_probe(recorder)
    hash_probe(recorder)
    engine_probe(recorder)
    overlay_probe(recorder, overlay_n)
    metrics = {"store.entry_bytes": float(store_probe(recorder))}
    per_item = recorder.per_item()
    for metric, (span, factor) in SPAN_METRICS.items():
        metrics[metric] = statistics.median(per_item[span]) * factor
    metrics["trace_overhead_share"] = trace_overhead_share()
    return metrics
