"""Message transport with a fixed per-message transfer time.

The paper's timing model (§4.1) assumes a reliable transfer protocol and a
transfer time of 1.728 s per message — one hundredth of the proactive
period Δ = 172.8 s. We model transfer time as latency: a message sent at
``t`` is delivered at ``t + transfer_time``. By default there is no
in-transit drop, matching the reliable-transfer assumption, but a message
addressed to a node that is *offline at delivery time* is lost (the
destination left the network, which the model explicitly permits).

The paper's §2.1 notes "the protocols themselves do not require this
[reliable transfer] assumption", and §3.3.1 claims the proactive
component keeps the system alive "even under high message drop rates".
To exercise that claim the transport also supports i.i.d. in-transit
message loss (``loss_rate``), used by the fault-injection tests and the
fault-tolerance bench.

The transport also keeps per-node send accounting. This supports the
rate-limit bound of §3.4 (a node sends at most ``⌊t/Δ⌋ + C`` messages in
any window of length ``t``), which we audit in tests and benches via
:class:`repro.core.ratelimit.RateLimitAuditor`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.node import SimNode


class Message(NamedTuple):
    """An application-layer message in flight.

    Immutable, and built once per send. :meth:`Network.send` builds it
    with ``tuple.__new__`` in one C call: the named tuple's own
    ``__new__`` is a generated Python function (one more frame per
    send), and a frozen dataclass would pay ``object.__setattr__`` per
    field. Keyword construction (``Message(src=..., ...)``) works as
    for any named tuple.

    Attributes
    ----------
    src:
        Sender node id.
    dst:
        Destination node id.
    payload:
        Application-defined content (kept opaque by the transport).
    kind:
        Application-defined tag used for dispatch; the token account
        protocol uses ``"data"`` for Algorithm 4 messages and push gossip
        adds ``"pull-request"`` / ``"pull-reply"`` for the churn scenario.
    sent_at:
        Virtual send time.
    """

    src: int
    dst: int
    payload: Any
    kind: str
    sent_at: float


#: builds a :class:`Message` from its five fields in one C call
_new_tuple = tuple.__new__


@dataclass
class NetworkStats:
    """Aggregate transport counters for one simulation run."""

    sent: int = 0
    delivered: int = 0
    lost_offline: int = 0
    lost_dropped: int = 0
    #: sends attempted by a node that was (already) offline at the send
    #: instant — dropped and counted, never delivered (see
    #: :meth:`Network.send` on the same-instant churn race)
    lost_sender_offline: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)


class Network:
    """Routes messages between registered nodes with fixed latency.

    Parameters
    ----------
    sim:
        The discrete-event engine.
    transfer_time:
        Latency applied to every message, in virtual seconds.

    Notes
    -----
    * **Same-instant ordering under churn.** Events at one virtual
      instant run in scheduling order (FIFO seq, see
      :class:`~repro.sim.engine.Simulator`). Churn transitions are
      scheduled up-front by :meth:`repro.churn.schedule.ChurnSchedule.apply`
      — *before* any protocol timer is armed — so when a node's period
      timer fires at the very instant the node is taken offline, the
      offline transition has already run and the tick's own online guard
      skips the send. Sends scheduled *dynamically* (application control
      plane, workload callbacks, failure injectors) cannot rely on that
      ordering: a stale callback may still attempt to send after its
      node went offline in the same instant. Such sends are not a crash;
      they are dropped and counted in ``stats.lost_sender_offline`` (the
      destination left the network — the model explicitly permits this,
      and the sender leaving mid-instant is the symmetric case).
    """

    def __init__(
        self,
        sim: Simulator,
        transfer_time: float,
        loss_rate: float = 0.0,
        loss_rng: Optional[random.Random] = None,
        transfer_jitter: float = 0.0,
        transfer_rng: Optional[random.Random] = None,
    ):
        if transfer_time < 0:
            raise ValueError(f"transfer_time must be >= 0, got {transfer_time}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0.0 and loss_rng is None:
            raise ValueError("a loss_rng is required when loss_rate > 0")
        if not 0.0 <= transfer_jitter < 1.0:
            raise ValueError(
                f"transfer_jitter must be in [0, 1), got {transfer_jitter}"
            )
        if transfer_jitter > 0.0 and transfer_rng is None:
            raise ValueError("a transfer_rng is required when transfer_jitter > 0")
        self.sim = sim
        self.transfer_time = transfer_time
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng
        self.transfer_jitter = transfer_jitter
        self.transfer_rng = transfer_rng
        self.nodes: Dict[int, SimNode] = {}
        self.stats = NetworkStats()
        self._send_listeners: List[Callable[[Message], None]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node: SimNode) -> None:
        """Attach a node to the network; its id must be unique."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node

    def register_all(self, nodes: Sequence[SimNode]) -> None:
        for node in nodes:
            self.register(node)

    def node(self, node_id: int) -> SimNode:
        return self.nodes[node_id]

    def is_online(self, node_id: int) -> bool:
        return self.nodes[node_id].online

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self, src: int, dst: int, payload: Any, kind: str = "data"
    ) -> Optional[Message]:
        """Send ``payload`` from ``src`` to ``dst``; returns the message.

        Delivery is scheduled ``transfer_time`` seconds in the future and
        silently dropped if the destination is offline at that instant.

        A send attempted by an *offline* node — reachable when a
        dynamically scheduled callback races a churn transition at the
        same virtual instant (see the class notes) — is dropped before
        any accounting: it returns ``None`` and increments
        ``stats.lost_sender_offline`` only. It does not count as sent and
        is invisible to send listeners, so the §3.4 burst audit never
        sees a message the node could not actually emit.
        """
        sender = self.nodes[src]
        if not sender.online:
            self.stats.lost_sender_offline += 1
            return None
        if dst not in self.nodes:
            raise KeyError(f"unknown destination node {dst}")
        sim = self.sim
        now = sim.now
        message = _new_tuple(Message, (src, dst, payload, kind, now))
        stats = self.stats
        stats.sent += 1
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        for listener in self._send_listeners:
            listener(message)
        delay = self.transfer_time
        if self.transfer_jitter > 0.0:
            # Symmetric uniform jitter: mean delay stays transfer_time,
            # so metrics normalized by the ideal transfer time compare.
            delay *= 1.0 + self.transfer_jitter * (
                2.0 * self.transfer_rng.random() - 1.0
            )
        sim.schedule(delay, self._deliver, message)
        return message

    def add_send_listener(self, listener: Callable[[Message], None]) -> None:
        """Observe every send (used by metric collectors and auditors)."""
        self._send_listeners.append(listener)

    # ------------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        if self.loss_rate > 0.0 and self.loss_rng.random() < self.loss_rate:
            self.stats.lost_dropped += 1
            return
        receiver = self.nodes[message.dst]
        if not receiver.online:
            self.stats.lost_offline += 1
            return
        self.stats.delivered += 1
        receiver.deliver(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={len(self.nodes)}, sent={self.stats.sent}, "
            f"delivered={self.stats.delivered})"
        )
