"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.api import Application
from repro.core.protocol import TokenAccountNode
from repro.core.strategies import Strategy
from repro.overlay.graph import Overlay
from repro.overlay.peer_sampling import PeerSampler
from repro.serve import wire
from repro.sim.engine import Simulator
from repro.sim.network import Network


class RecordingApp(Application):
    """A trivial application that records every interaction.

    ``create_message`` returns an incrementing sequence number;
    ``update_state`` records the payload and reports the usefulness
    chosen at construction (or per-payload via ``useful_if``).
    """

    def __init__(self, useful=True):
        super().__init__()
        self.useful = useful
        self.sent_payloads = []
        self.received = []
        self.online_events = []
        self._counter = 0

    def create_message(self):
        self._counter += 1
        self.sent_payloads.append(self._counter)
        return self._counter

    def update_state(self, payload, sender):
        self.received.append((payload, sender))
        if callable(self.useful):
            return self.useful(payload)
        return self.useful

    def on_online(self):
        self.online_events.append(("online", None))

    def on_offline(self):
        self.online_events.append(("offline", None))


def ring_overlay(n: int) -> Overlay:
    """A directed ring 0 -> 1 -> ... -> n-1 -> 0."""
    return Overlay([[(i + 1) % n] for i in range(n)])


def complete_overlay(n: int) -> Overlay:
    """A complete directed graph (every node links to every other)."""
    return Overlay([[j for j in range(n) if j != i] for i in range(n)])


class MiniSystem:
    """A tiny wired system: simulator, network, nodes over an overlay."""

    def __init__(
        self,
        strategy: Strategy,
        n: int = 4,
        period: float = 10.0,
        transfer_time: float = 0.1,
        overlay: Overlay | None = None,
        useful=True,
        seed: int = 42,
        initial_tokens: int = 0,
        phases=None,
        app_factory=None,
    ):
        self.sim = Simulator()
        self.network = Network(self.sim, transfer_time)
        self.overlay = overlay if overlay is not None else complete_overlay(n)
        self.sampler = PeerSampler(self.overlay, self.network, random.Random(seed))
        if app_factory is None:
            self.apps = [RecordingApp(useful=useful) for _ in range(self.overlay.n)]
        else:
            self.apps = [app_factory(i) for i in range(self.overlay.n)]
        self.nodes = []
        rng = random.Random(seed + 1)
        for i in range(self.overlay.n):
            node = TokenAccountNode(
                node_id=i,
                sim=self.sim,
                network=self.network,
                peer_sampler=self.sampler,
                strategy=strategy,
                app=self.apps[i],
                period=period,
                rng=rng,
                initial_tokens=initial_tokens,
            )
            if phases is not None:
                node.process.phase = phases[i]
            self.network.register(node)
            self.nodes.append(node)

    def start(self):
        for node in self.nodes:
            node.start()
        return self

    def run(self, until: float):
        self.sim.run(until=until)
        return self


async def binary_client(port: int):
    """Open a wire connection to ``127.0.0.1:port`` and complete the hello."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(wire.MAGIC)
    await writer.drain()
    assert await reader.readexactly(len(wire.MAGIC)) == wire.MAGIC
    return reader, writer


async def read_frames(reader, count: int):
    """Read ``count`` response frame payloads, however TCP segments them."""
    buffer = bytearray()
    frames = []
    while len(frames) < count:
        chunk = await reader.read(2**16)
        assert chunk, "server closed early"
        buffer += chunk
        payloads, consumed = wire.split_frames(buffer)
        del buffer[:consumed]
        frames.extend(payloads)
    return frames


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
