"""Peer sampling service — the ``selectPeer()`` black box of §2.1.

The system model assumes each node can draw a peer from its current
neighbor set, that neighbor failures are detected, and that messages can
only go to *current* neighbors. We implement the simplest service that
honours those assumptions over a static overlay with churn:

* ``select_peer(i)`` returns a uniformly random **online** out-neighbor
  of ``i``, or ``None`` when every out-neighbor is offline (in which case
  the caller skips sending — there is no one to talk to).

For mostly-online populations a couple of rejection-sampling draws are
cheapest; when rejections pile up we fall back to materializing the
online subset, which also detects the all-offline case exactly.

Each draw is one ``rng.choice`` on the adjacency tuple. On CPython
3.10–3.12 ``choice(seq)`` is ``seq[self._randbelow(len(seq))]``: the
same index as the integer-range draw this module used to make, without
that draw's argument conversion and checks, so no simulated number
changes (``tests/test_peer_sampling.py`` holds the two spellings to the
same generator state).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.overlay.graph import Overlay
from repro.sim.network import Network

_REJECTION_ATTEMPTS = 8


class PeerSampler:
    """Uniform sampling over the online out-neighbors of each node."""

    def __init__(self, overlay: Overlay, network: Network, rng: random.Random):
        self.overlay = overlay
        self.network = network
        self.rng = rng

    def select_peer(self, node_id: int) -> Optional[int]:
        """Return a random online out-neighbor of ``node_id`` or ``None``."""
        neighbors = self.overlay.out_neighbors(node_id)
        if not neighbors:
            return None
        nodes = self.network.nodes
        choice = self.rng.choice
        for _ in range(_REJECTION_ATTEMPTS):
            candidate = choice(neighbors)
            if nodes[candidate].online:
                return candidate
        online = [peer for peer in neighbors if nodes[peer].online]
        if not online:
            return None
        return choice(online)

    def online_neighbors(self, node_id: int) -> list[int]:
        """All currently online out-neighbors (used by tests and metrics)."""
        nodes = self.network.nodes
        return [
            peer
            for peer in self.overlay.out_neighbors(node_id)
            if nodes[peer].online
        ]
