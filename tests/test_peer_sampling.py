"""Unit tests for the peer sampling service (selectPeer of §2.1)."""

import random
from collections import Counter

import pytest

from repro.overlay.graph import Overlay
from repro.overlay.peer_sampling import PeerSampler
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import SimNode


def wired(out_neighbors, seed=1):
    overlay = Overlay(out_neighbors)
    network = Network(Simulator(), 1.0)
    nodes = [SimNode(i) for i in range(overlay.n)]
    network.register_all(nodes)
    sampler = PeerSampler(overlay, network, random.Random(seed))
    return sampler, nodes


def test_returns_only_out_neighbors():
    sampler, _ = wired([[1, 2], [0], [0]])
    for _ in range(100):
        assert sampler.select_peer(0) in (1, 2)
        assert sampler.select_peer(1) == 0


def test_uniform_over_online_neighbors():
    sampler, _ = wired([[1, 2, 3, 4], [0], [0], [0], [0]], seed=3)
    counts = Counter(sampler.select_peer(0) for _ in range(8000))
    for neighbor in (1, 2, 3, 4):
        assert abs(counts[neighbor] / 8000 - 0.25) < 0.03


def test_skips_offline_neighbors():
    sampler, nodes = wired([[1, 2], [0], [0]])
    nodes[1].set_online(False)
    for _ in range(50):
        assert sampler.select_peer(0) == 2


def test_none_when_all_neighbors_offline():
    sampler, nodes = wired([[1, 2], [0], [0]])
    nodes[1].set_online(False)
    nodes[2].set_online(False)
    assert sampler.select_peer(0) is None


def test_none_when_no_neighbors():
    sampler, _ = wired([[1], []])
    assert sampler.select_peer(1) is None


def test_fallback_path_still_uniform():
    """With most neighbors offline, the explicit-filter path is used."""
    sampler, nodes = wired([[1, 2, 3, 4, 5, 6, 7, 8], [0]] + [[0]] * 7, seed=5)
    for node in nodes[1:8]:
        node.set_online(False)  # only neighbor 8 stays online
    for _ in range(50):
        assert sampler.select_peer(0) == 8


def test_online_neighbors_helper():
    sampler, nodes = wired([[1, 2, 3], [0], [0], [0]])
    nodes[2].set_online(False)
    assert sampler.online_neighbors(0) == [1, 3]
    assert sampler.online_neighbors(1) == [0]


def reference_select(neighbors, nodes, rng):
    """``select_peer`` as spelled with ``randrange``: the numbers it must keep."""
    if not neighbors:
        return None
    for _ in range(8):
        candidate = neighbors[rng.randrange(len(neighbors))]
        if nodes[candidate].online:
            return candidate
    online = [peer for peer in neighbors if nodes[peer].online]
    if not online:
        return None
    return online[rng.randrange(len(online))]


@pytest.mark.parametrize("degree", [1, 2, 3, 7, 20, 1000])
@pytest.mark.parametrize("online_share", [1.0, 0.5, 0.1, 0.0])
def test_draws_leave_the_generator_where_randrange_did(degree, online_share):
    """Same peers and the same generator state as the ``randrange`` spelling,
    on the rejection draws and on the fallback over the online subset."""
    out = [list(range(1, degree + 1))] + [[0]] * degree
    sampler, nodes = wired(out, seed=degree)
    layout = random.Random(7)
    for node in nodes[1:]:
        node.set_online(layout.random() < online_share)
    if online_share == 0.1:
        nodes[degree].set_online(True)  # at least one peer: the fallback finds it
    twin = random.Random(degree)
    for _ in range(300):
        assert sampler.select_peer(0) == reference_select(out[0], nodes, twin)
        assert sampler.rng.getstate() == twin.getstate()
