"""Algorithm 4 — the token account protocol loop.

:class:`TokenAccountNode` binds together a strategy (the proactive and
reactive functions), an application (``createMessage`` / ``updateState``),
the peer sampling service and the per-node account, and executes the
paper's Algorithm 4 verbatim::

    a <- initial number of tokens
    loop:
        wait(Δ)
        do with probability proactive(a):
            send createMessage() to selectPeer()
        else:
            a <- a + 1

    procedure ONMESSAGE(m):
        u <- updateState(m)
        x <- randRound(reactive(a, u))
        a <- a - x
        for i <- 1 to x:
            send createMessage() to selectPeer()

Fidelity notes
--------------
* A proactive send does **not** touch the account: the round's token is
  consumed by the send itself. Only the skipped round banks a token.
* ``reactive(a, u) <= a`` and ``a`` is an integer, so the randomized
  rounding can never overdraw a guarded account (``⌈r⌉ <= a`` whenever
  ``r <= a``); the account class still asserts it.
* Each reactive message calls ``createMessage()`` *after* the state
  update, so all ``x`` copies carry the updated state — as in the
  pseudo-code, where ONMESSAGE calls ``createMessage()`` in the loop.
* Under churn, an offline node's timer does not fire tokens ("nodes only
  receive tokens when online") — we keep the timer running but the tick
  handler returns immediately while offline, which preserves the node's
  round phase across reconnects the way PeerSim's cycle-based scheduling
  does.
* If ``selectPeer()`` finds no online peer, a proactive send falls back
  to banking the token and a reactive send refunds unspent tokens; both
  paths keep the §3.4 burst bound intact (see
  :mod:`repro.core.account`).
* ``proactive(a)`` and ``randRound(reactive(a, u))`` are read from the
  strategy's :class:`~repro.core.kernel.DecisionKernel` tables, the same
  lists the serving limiter reads, for boolean ``u`` and balances in
  ``[0, lut_max]``. Graded usefulness, other flags and balances outside
  the tables go through the formulas and :func:`rand_round`, as
  :meth:`~repro.core.kernel.DecisionKernel.decide_one_drawn` does. The
  draws are the formulas' own either way: one uniform per online tick
  (even when the probability is 0 or 1) and one per reaction whose
  budget has a fractional part.
"""

from __future__ import annotations

import random

from repro.core.account import TokenAccount
from repro.core.api import Application
from repro.core.rounding import rand_round
from repro.core.strategies import Strategy
from repro.overlay.peer_sampling import PeerSampler
from repro.sim.engine import Simulator
from repro.sim.network import Message, Network
from repro.sim.node import SimNode
from repro.sim.process import PeriodicProcess

#: message kind used for Algorithm 4 data messages
DATA = "data"


class TokenAccountNode(SimNode):
    """A simulated node running Algorithm 4.

    Parameters
    ----------
    node_id:
        Dense integer id, also the overlay index.
    sim, network, peer_sampler:
        The shared substrate services.
    strategy:
        The proactive/reactive function pair.
    app:
        The application bound to this node (one instance per node).
    period:
        The round length Δ.
    rng:
        Per-node random stream (phase, strategy coin flips, rounding).
    initial_tokens:
        Starting balance; the paper's experiments use 0.
    online:
        Initial availability.
    """

    # One instance per simulated node — at N = 500,000 the per-instance
    # dict is the dominant memory cost, so the class is slotted.
    __slots__ = (
        "sim",
        "network",
        "peer_sampler",
        "strategy",
        "app",
        "rng",
        "account",
        "kernel",
        "process",
        "proactive_sends",
        "reactive_sends",
        "skipped_no_peer",
        "messages_received",
        "useful_received",
    )

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        peer_sampler: PeerSampler,
        strategy: Strategy,
        app: Application,
        period: float,
        rng: random.Random,
        initial_tokens: int = 0,
        online: bool = True,
    ):
        super().__init__(node_id, online=online)
        self.sim = sim
        self.network = network
        self.peer_sampler = peer_sampler
        self.strategy = strategy
        self.app = app
        self.rng = rng
        self.account = TokenAccount(
            initial=initial_tokens,
            capacity=strategy.token_capacity,
            allow_overdraft=strategy.requires_overdraft,
        )
        self.kernel = strategy.decision_kernel
        self.process = PeriodicProcess(sim, period, self._on_tick, rng=rng)
        self.proactive_sends = 0
        self.reactive_sends = 0
        self.skipped_no_peer = 0
        self.messages_received = 0
        self.useful_received = 0
        app.bind(self)
        self.add_online_listener(self._on_availability_change)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TokenAccountNode":
        """Begin the periodic loop and notify the application."""
        self.process.start()
        self.app.on_start()
        return self

    def stop(self) -> None:
        self.process.stop()

    def _on_availability_change(self, online: bool) -> None:
        if online:
            self.app.on_online()
        else:
            self.app.on_offline()

    # ------------------------------------------------------------------
    # Algorithm 4: the periodic loop
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        if not self.online:
            return  # offline nodes neither bank nor spend tokens
        account = self.account
        balance = account.balance
        kernel = self.kernel
        if 0 <= balance <= kernel.lut_max:
            probability = kernel._pro_list[balance]
        else:
            probability = self.strategy.proactive(balance)
        if self.rng.random() < probability:
            peer = self.peer_sampler.select_peer(self.node_id)
            if peer is None:
                # No online neighbor: the send is impossible; bank the
                # round's token instead (clamped at capacity C).
                self.skipped_no_peer += 1
                account.grant()
                return
            self.network.send(self.node_id, peer, self.app.create_message(), DATA)
            self.proactive_sends += 1
        else:
            account.grant()

    # ------------------------------------------------------------------
    # Algorithm 4: ONMESSAGE
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        if message.kind != DATA:
            if not self.app.handle_control(message):
                raise RuntimeError(
                    f"node {self.node_id}: unhandled control message "
                    f"kind={message.kind!r}"
                )
            return
        self.messages_received += 1
        useful = self.app.update_state(message.payload, message.src)
        if useful:
            self.useful_received += 1
        self.react(useful)

    def react(self, useful: bool) -> int:
        """The reactive half of ONMESSAGE: spend tokens, send copies.

        Returns the number of messages actually sent. Exposed separately
        so that out-of-band state changes (e.g. an update injected
        directly into a node, §4.1.2 ablation) can trigger the reactive
        response without a network message.
        """
        balance = self.account.balance
        kernel = self.kernel
        if (useful is True or useful is False) and 0 <= balance <= kernel.lut_max:
            key = balance + kernel.lut_span if useful else balance
            count = kernel._int_list[key]
            fraction = kernel._frac_list[key]
            if fraction > 0.0 and self.rng.random() < fraction:
                count += 1
        else:
            count = rand_round(self.strategy.reactive(balance, useful), self.rng)
        if count == 0:
            return 0
        self.account.withdraw(count)
        sent = 0
        for _ in range(count):
            peer = self.peer_sampler.select_peer(self.node_id)
            if peer is None:
                break
            self.network.send(self.node_id, peer, self.app.create_message(), DATA)
            sent += 1
        self.reactive_sends += sent
        if sent < count:
            self.skipped_no_peer += count - sent
            self.account.refund(count - sent)
        return sent

    def kick(self, count: int = 1) -> int:
        """Send ``count`` data messages outside the token accounting.

        This bootstraps the purely reactive reference: with
        ``PROACTIVE ≡ 0`` no node would ever initiate, so the flooding
        baseline starts each node's cascade with one kicked message (the
        "hot potato" walks of §4.1.1). Never used by the token account
        strategies, whose proactive function self-starts.
        """
        if not self.online:
            return 0
        sent = 0
        for _ in range(count):
            peer = self.peer_sampler.select_peer(self.node_id)
            if peer is None:
                break
            self.network.send(self.node_id, peer, self.app.create_message(), DATA)
            sent += 1
        return sent

    # ------------------------------------------------------------------
    # Control-plane helper used by applications (e.g. push gossip pull)
    # ------------------------------------------------------------------
    def send_control(self, dst: int, payload: object, kind: str) -> None:
        """Send a non-Algorithm-4 message (application control plane)."""
        if kind == DATA:
            raise ValueError("control messages must not use the data kind")
        self.network.send(self.node_id, dst, payload, kind)

    def try_spend_token(self) -> bool:
        """Atomically burn one token if available (pull replies, §4.1.2)."""
        if self.account.balance > 0:
            self.account.withdraw(1)
            return True
        return False

    @property
    def total_sends(self) -> int:
        return self.proactive_sends + self.reactive_sends

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TokenAccountNode(id={self.node_id}, a={self.account.balance}, "
            f"strategy={self.strategy.describe()})"
        )
