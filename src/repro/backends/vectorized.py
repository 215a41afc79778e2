"""The bulk-synchronous NumPy backend for large-N populations.

The discrete-event reference executes Algorithm 4 one event at a time —
exact, but topping out around a few thousand nodes. The paper's claims
(§4) are *population-level*: the burst bound holds per node regardless
of N, and token accounts tame burstiness while matching reactive
latency. Token-based aggregation analyses (Saligrama & Alanyali 2011;
Salehkaleybar & Golestani 2017) study exactly these dynamics at
10^5–10^6 nodes through synchronous-round models — the fast path this
backend vectorizes.

The bulk-synchronous model
--------------------------
Time advances in slots of length Δ (the proactive period). Within one
slot, for all N nodes at once with array operations:

1. **Churn** — availability transitions falling inside the slot are
   applied at the slot boundary; nodes that came online send the
   §4.1.2 pull request (answered by burning a token, the reply entering
   the normal data path).
2. **Injection** — the workload's updates for this slot are injected
   into random online nodes (in index order).
3. **Proactive phase** — every online node's timer fires: a Bernoulli
   draw against ``PROACTIVE(a)`` either sends to a random online
   out-neighbor (overlay adjacency in CSR form) or banks a token
   (clamped at C). Heterogeneous periods (``period_spread``) are
   modelled with per-node tick-credit accumulators.
4. **Message hops** — messages are delivered in sub-rounds of one
   transfer time each (at most ``⌊Δ/transfer⌋`` hops per slot, the
   same cascade depth the event engine fits into a slot): i.i.d.
   Bernoulli loss, usefulness against the receiver's state, reactive
   spending via ``randRound(REACTIVE(a, u))``, new sends joining the
   next hop. Messages still in flight when the hop budget runs out
   carry over into the next slot.
5. **Sampling** — the quality metric (eq. 7 lag) and, optionally, the
   average token balance are sampled at the slot boundary, and per-node
   per-slot send counts feed the §3.4 burst audit.

When is this exact, when statistical?
-------------------------------------
Per-node *budgets* are exact: strategies are evaluated through lookup
tables over the integer balance (bit-exact for every registered
strategy, including the graded ones under boolean usefulness), banking
clamps at C, reactive spending never overdraws, and the §3.4 burst
bound therefore holds exactly per slot window. What is approximated is
*timing*: sub-slot phases, per-message latency jitter (absorbed — the
mean transfer time is unchanged and every delivery still lands in its
slot) and the interleaving of injections with sends inside one slot.
Round-level aggregates — sends per slot, quality curves, burst audits —
match the event engine statistically, which is what the equivalence
gate (``tests/test_backend_equivalence.py``) asserts on small N before
this backend is trusted at large N.

Determinism: all randomness comes from one named NumPy generator
(``streams.numpy_stream("vectorized-backend")``) drawn in a fixed
order, so the same spec + seed is bit-identical on every run. Overlay
and churn randomness use the *same* named streams as the event engine,
so both backends simulate the identical topology and availability
trace.

Three invariants keep the slot loop fast *and* bit-identical to what
every earlier commit computed (``tests/test_vectorized_golden.py`` pins
results across commits, ``tests/test_vectorized_invariants.py`` the
first point):

* **Uniform-degree draw ≡ broadcast draw.** When every node has the same
  out-degree k (every k-out overlay), ``rng.integers(0, k, size=m)`` is
  the stream ``rng.integers(0, degrees[src])`` yields, at a fifth of the
  cost, and a sender's neighbor slice starts at ``src * k``: a peer is
  ``indices[src * k + draw]`` with no degree or offset gather.
* **No RNG call moves.** Every draw keeps its generator, order, bound
  and count, whatever is done to the array work between draws.
* **A batch of unique nodes is written whole.** An arrival batch holds
  each destination once, so adoption is ``update[batch] = max(held,
  payload)`` and a reaction writes every balance back, zero spends
  included, with no selected subsets; a kernel that cannot react adopts
  a whole hop with one ``np.maximum.at``, since only a reaction can see
  arrival order.

Supported envelope: the push-gossip application (any registered
strategy, overlay and churn model; loss, jitter, period spread,
heterogeneous knobs as above). Other applications, graded usefulness
(``grading_scale``) and the reactive-injection ablation raise
:class:`~repro.backends.base.BackendUnsupportedError` pointing back at
the event backend.
"""

from __future__ import annotations

import time as _wallclock
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.backends.base import BackendUnsupportedError, SimulationBackend
from repro.core.kernel import DecisionKernel
from repro.core.ratelimit import RateLimitViolation, burst_bound
from repro.metrics.series import TimeSeries
from repro.sim.network import NetworkStats
from repro.sim.randomness import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.scenarios import ScenarioSpec

#: rejection-sampling rounds before the exact online-neighbor fallback
_REJECTION_ROUNDS = 8

#: applications the vectorized kernels implement
_SUPPORTED_APPS = ("push-gossip",)


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """The parts as one int64 array."""
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _overlay_csr(overlay) -> Tuple[np.ndarray, np.ndarray]:
    """The overlay's out-adjacency as CSR ``(indptr, indices)`` arrays."""
    n = overlay.n
    degrees = np.fromiter(
        (overlay.out_degree(i) for i in range(n)), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        (target for i in range(n) for target in overlay.out_neighbors(i)),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return indptr, indices


def _slot_transitions(
    trace, n: int, period: float, slots: int
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Bucket every churn transition into its slot, preserving order.

    Returns ``{slot: (node_ids, online_flags)}``; transitions are applied
    at the start of their slot (``slot = ⌊time/Δ⌋``), the bulk-synchronous
    discretisation of the trace.
    """
    buckets: Dict[int, Tuple[List[int], List[bool]]] = {}
    for node_id in range(n):
        for when, online in trace.transitions(node_id):
            if when == 0.0:
                continue  # encoded in the initial state
            slot = min(int(when // period), slots - 1)
            nodes, flags = buckets.setdefault(slot, ([], []))
            nodes.append(node_id)
            flags.append(online)
    return {
        slot: (np.array(nodes, dtype=np.int64), np.array(flags, dtype=bool))
        for slot, (nodes, flags) in buckets.items()
    }


class VectorizedBackend(SimulationBackend):
    """Bulk-synchronous NumPy execution of push-gossip scenarios."""

    name = "vectorized"

    #: tokens banked per skipped proactive round. Algorithm 4 banks
    #: exactly one; this is a seam for the equivalence gate's
    #: negative-path test, which overrides it to prove an off-by-one
    #: grant is caught (``tests/test_backend_equivalence.py``).
    grant_amount: int = 1

    # ------------------------------------------------------------------
    def run(self, spec):
        """Execute the scenario; see the module docstring for the model."""
        from repro.experiments.runner import ExperimentResult

        self._check_supported(spec)
        started = _wallclock.perf_counter()
        sim = _PushGossipKernel(spec, grant_amount=self.grant_amount)
        sim.run()
        elapsed = _wallclock.perf_counter() - started
        data_messages = sim.stats.by_kind.get("data", 0)
        return ExperimentResult(
            config=spec,
            label=spec.label(),
            metric=sim.metric_series,
            tokens=sim.token_series,
            network=sim.stats,
            data_messages=data_messages,
            messages_per_node_per_period=data_messages / (spec.n * spec.periods),
            ratelimit_violations=sim.audit_violations(),
            surviving_walks=None,
            extras={},
            elapsed=elapsed,
            events_processed=sim.events_processed,
        )

    # ------------------------------------------------------------------
    def _check_supported(self, spec: "ScenarioSpec") -> None:
        """Reject scenarios outside the vectorized envelope, precisely."""
        if spec.app.name not in _SUPPORTED_APPS:
            raise BackendUnsupportedError(
                f"backend 'vectorized' does not implement app {spec.app.name!r} "
                f"(supported: {', '.join(_SUPPORTED_APPS)}); use backend='event'"
            )
        params = spec.app.kwargs
        if params.get("grading_scale") is not None:
            raise BackendUnsupportedError(
                "backend 'vectorized' supports boolean usefulness only "
                "(grading_scale must be None); use backend='event'"
            )
        if params.get("reactive_injection"):
            raise BackendUnsupportedError(
                "backend 'vectorized' does not implement the "
                "reactive-injection ablation; use backend='event'"
            )


class _PushGossipKernel:
    """One vectorized push-gossip run: state arrays + the slot loop."""

    def __init__(self, spec: "ScenarioSpec", grant_amount: int = 1):
        from repro.registry import churn_models, overlays

        self.spec = spec
        self.grant = int(grant_amount)
        n = spec.n
        streams = RandomStreams(spec.seed)
        self.rng = streams.numpy_stream("vectorized-backend")

        strategy = spec.build_strategy()
        self.strategy = strategy
        self.capacity = strategy.token_capacity
        self.overdraft = strategy.requires_overdraft
        # The shared Algorithm-4 kernel (repro.core.kernel): the same
        # object the serving layer decides with, holding the fused
        # strategy LUTs, so a reaction batch costs two gathers and one
        # Bernoulli draw.
        self.kernel: DecisionKernel = strategy.decision_kernel
        self.pro_lut = self.kernel.pro_lut
        #: strategies that never react (the purely proactive baseline)
        #: skip the arrival batches: a hop is one scatter-max
        self.can_react = self.kernel.can_react
        #: message-index claim buffer for one-arrival-per-dst selection
        #: (every entry is written before it is read, so never reset)
        self._claim = np.empty(n, dtype=np.int64)

        # Same named streams as the event engine: identical overlay and
        # availability trace on both backends. Large k-out overlays are
        # wired straight into CSR (the same NumPy adjacency the Python
        # Overlay object wraps on the event side — byte-identical
        # wiring, no per-node tuple materialisation).
        from repro.overlay.kout import NUMPY_WIRING_MIN_N, kout_adjacency

        overlay_ref = spec.resolved_overlay()
        if overlay_ref.name == "kout" and n >= NUMPY_WIRING_MIN_N:
            k = overlay_ref.kwargs.get("k", 20)
            targets = kout_adjacency(n, k, streams.stream("overlay").getrandbits(64))
            self.indptr = np.arange(n + 1, dtype=np.int64) * k
            self.indices = targets.reshape(-1)
        else:
            overlay = overlays.create(
                overlay_ref.name, n, streams.stream("overlay"), **overlay_ref.kwargs
            )
            self.indptr, self.indices = _overlay_csr(overlay)
        self.degrees = self.indptr[1:] - self.indptr[:-1]
        #: the out-degree when every node has the same one (every k-out
        #: overlay), else 0: ``integers(0, k, size=m)`` then draws the
        #: stream ``integers(0, degrees[src])`` would, at a fifth of the
        #: cost, and a neighbor slice starts at ``src * k``
        uniform = (self.degrees == self.degrees[0]).all()
        self.out_degree = int(self.degrees[0]) if uniform else 0

        trace = churn_models.create(
            spec.churn.name,
            n,
            streams.stream("churn"),
            spec.horizon,
            **spec.churn.kwargs,
        )
        self.slots = spec.periods
        self.transitions = (
            _slot_transitions(trace, n, spec.period, self.slots)
            if trace is not None
            else {}
        )
        self.online = np.ones(n, dtype=bool)
        if trace is not None:
            for node_id in range(n):
                self.online[node_id] = trace.is_online(node_id, 0.0)
        #: failure-free fast path: with every node permanently online the
        #: per-hop availability filters and the online check inside peer
        #: selection are identities and are skipped wholesale
        self.has_churn = trace is not None
        self._everyone = np.arange(n)
        #: whether peer selection can come back empty-handed (-1): only
        #: when neighbors can be offline or a node has no out-links
        self.may_lack_peer = self.has_churn or not self.degrees.all()

        app = spec.app.kwargs
        self.pull_on_rejoin = (
            bool(app.get("pull_on_rejoin", True)) and trace is not None
        )
        self.inject_interval = float(app.get("inject_interval", 0.0)) or None
        if self.inject_interval is None:
            from repro.scenarios import PAPER

            self.inject_interval = PAPER.inject_interval

        self.balance = np.full(n, spec.initial_tokens, dtype=np.int64)
        self.update = np.zeros(n, dtype=np.int64)  # 0 = the null update
        self.latest = 0

        self.stats = NetworkStats()
        self.metric_series = TimeSeries()
        self.token_series: Optional[TimeSeries] = (
            TimeSeries() if spec.collect_tokens else None
        )
        self.events_processed = 0
        self.max_hops = max(1, int(spec.period // spec.network.transfer_time))
        # Cascade tails trickle: a handful of messages per hop for tens
        # of hops. Below this batch size the remaining messages carry
        # over to the next slot instead, where they merge with the next
        # full batch — amortising fixed array-op overhead without
        # touching small-N runs (the equivalence-gate scale processes
        # every hop in-slot).
        self.min_hop_batch = n // 512
        self.loss_rate = spec.network.loss_rate

        # Heterogeneous periods: node i ticks Δ/period_i times per slot
        # on average, realised through a per-node credit accumulator.
        if spec.period_spread > 0:
            draw = self.rng.random(n)
            periods_i = spec.period * (1.0 + spec.period_spread * (2.0 * draw - 1.0))
            self.tick_rate = spec.period / periods_i
        else:
            self.tick_rate = None
        self.tick_credit = np.zeros(n, dtype=np.float64)

        # Carry-over messages whose cascade outlived the slot's hop budget.
        self.carry_dst = np.empty(0, dtype=np.int64)
        self.carry_payload = np.empty(0, dtype=np.int64)

        #: per-slot per-node data sends (burst audit; gate-scale N only)
        self.slot_sends: Optional[List[np.ndarray]] = [] if spec.audit_sends else None
        self._sends_this_slot: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Peer selection over the CSR adjacency
    # ------------------------------------------------------------------
    def _draw_neighbor(self, senders: np.ndarray) -> np.ndarray:
        """One uniform out-neighbor per sender (each has at least one)."""
        k = self.out_degree
        if k:
            gather = self.rng.integers(0, k, size=len(senders))
            gather += senders * k
        else:
            gather = self.rng.integers(0, self.degrees[senders])
            gather += self.indptr[senders]
        return self.indices.take(gather)

    def _select_peers(self, src: np.ndarray) -> np.ndarray:
        """A random *online* out-neighbor per sender, or -1 when none.

        Rejection sampling (uniform neighbor draw, re-draw while the
        pick is offline) with an exact fallback that materialises the
        online subset for the rare senders still unresolved — the same
        two-phase scheme as :class:`repro.overlay.peer_sampling.PeerSampler`.
        """
        m = len(src)
        k = self.out_degree
        if not self.has_churn:
            # Every neighbor is online: one uniform draw is the answer.
            if k:
                return self._draw_neighbor(src)
            degrees = self.degrees[src]
            gather = self.indptr[src] + self.rng.integers(0, np.maximum(degrees, 1))
            if not len(self.indices):
                return np.full(m, -1, dtype=np.int64)
            # Degree-0 senders have no slice to gather from (a trailing
            # sink's start offset is len(indices)): clip the read and
            # mask the result to -1.
            return np.where(degrees > 0, self.indices.take(gather, mode="clip"), -1)
        result = np.full(m, -1, dtype=np.int64)
        pending = np.arange(m) if k else (self.degrees[src] > 0).nonzero()[0]
        for _ in range(_REJECTION_ROUNDS):
            if not len(pending):
                return result
            candidates = self._draw_neighbor(src.take(pending))
            hit = self.online.take(candidates)
            accepted = hit.nonzero()[0]
            result[pending.take(accepted)] = candidates.take(accepted)
            pending = pending.take((~hit).nonzero()[0])
        # Exact fallback: only reached when a sender's neighborhood is
        # mostly offline; the loop body is tiny and the set is rare.
        indptr, indices, online = self.indptr, self.indices, self.online
        for j in pending.tolist():
            s = src[j]
            neighbors = indices[indptr[s] : indptr[s + 1]]
            alive = neighbors[online[neighbors]]
            if len(alive):
                result[j] = alive[self.rng.integers(0, len(alive))]
        return result

    # ------------------------------------------------------------------
    # The slot loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Advance the population slot by slot to the horizon."""
        spec = self.spec
        period = spec.period
        inject_times_per_slot = self._injection_schedule()
        for slot in range(self.slots):
            if self.slot_sends is not None:
                self._sends_this_slot = np.zeros(spec.n, dtype=np.int64)
            replies = self._apply_churn(slot)
            # The event engine spreads a slot's injections uniformly over
            # the slot; the bulk-synchronous discretisation splits them
            # around the cascade instead (half before, half after), so
            # the *mean* propagation time per update matches and the
            # quality curves stay comparable.
            pending = inject_times_per_slot[slot]
            early = pending - pending // 2
            self._inject(early)
            dst, payload = self._proactive_phase(slot)
            if replies is not None:
                dst = np.concatenate([replies[0], dst])
                payload = np.concatenate([replies[1], payload])
            if len(self.carry_dst):
                dst = np.concatenate([self.carry_dst, dst])
                payload = np.concatenate([self.carry_payload, payload])
            self.carry_dst, self.carry_payload = self._hop_loop(dst, payload)
            self._inject(pending // 2)
            self._sample((slot + 1) * period)
            if self.slot_sends is not None:
                self.slot_sends.append(self._sends_this_slot)

    def _injection_schedule(self) -> List[int]:
        """Number of injections per slot (times ``k·interval < horizon``)."""
        spec = self.spec
        counts = [0] * self.slots
        k = 0
        while True:
            when = k * self.inject_interval
            if when >= spec.horizon:
                break
            counts[min(int(when // spec.period), self.slots - 1)] += 1
            k += 1
        return counts

    def _apply_churn(self, slot: int):
        """Apply this slot's transitions; returns pull replies, if any."""
        entry = self.transitions.get(slot)
        if entry is None:
            return None
        nodes, flags = entry
        before = self.online[nodes]
        self.online[nodes] = flags  # in-order fancy assignment: last wins
        self.events_processed += len(nodes)
        if not self.pull_on_rejoin:
            return None
        # §4.1.2: nodes that came back online pull once. "Came online"
        # is judged on the net slot transition (offline -> online).
        rejoined = nodes[flags & ~before]
        rejoined = rejoined[self.online[rejoined]]
        if not len(rejoined):
            return None
        targets = self._select_peers(rejoined)
        ok = targets >= 0
        requesters, targets = rejoined[ok], targets[ok]
        count = len(requesters)
        if not count:
            return None
        self.stats.sent += count
        self.stats.by_kind["pull-request"] = (
            self.stats.by_kind.get("pull-request", 0) + count
        )
        if self.loss_rate > 0.0:
            keep = self.rng.random(count) >= self.loss_rate
            self.stats.lost_dropped += int(count - keep.sum())
            requesters, targets = requesters[keep], targets[keep]
        self.stats.delivered += len(requesters)
        self.events_processed += len(requesters)
        # "If this neighbor has tokens, a message is sent back with the
        # latest update (burning a token). Otherwise, no answer." Token
        # burns are sequential per target, so duplicates process in
        # unique batches.
        reply_src: List[np.ndarray] = []
        reply_dst: List[np.ndarray] = []
        while len(targets):
            _, first = np.unique(targets, return_index=True)
            batch_t, batch_r = targets[first], requesters[first]
            mask = np.ones(len(targets), dtype=bool)
            mask[first] = False
            targets, requesters = targets[mask], requesters[mask]
            answer = (self.update[batch_t] > 0) & (self.balance[batch_t] > 0)
            burned = batch_t[answer]
            self.balance[burned] -= 1
            reply_src.append(burned)
            reply_dst.append(batch_r[answer])
        src, dst = _joined(reply_src), _joined(reply_dst)
        self._record_data_sends(src)
        return dst, self.update[src]

    def _inject(self, count: int) -> None:
        """Inject ``count`` fresh updates into random online nodes."""
        if not count:
            return
        online_ids = self._online_ids()
        self.events_processed += count
        if not len(online_ids):
            return  # all offline: injections are skipped, like the event engine
        picks = online_ids.take(self.rng.integers(0, len(online_ids), size=count))
        indices = self.latest + 1 + np.arange(count, dtype=np.int64)
        self.latest += count
        # Duplicate picks keep the freshest injected index.
        np.maximum.at(self.update, picks, indices)

    def _proactive_phase(self, slot: int):
        """Every online node's timer: send proactively or bank a token."""
        if self.tick_rate is None:
            rounds = [self._online_ids()]  # one tick each
        else:
            self.tick_credit += self.tick_rate
            ticks = np.floor(self.tick_credit).astype(np.int64)
            self.tick_credit -= ticks
            ticks *= self.online  # offline timers neither bank nor spend
            rounds = [(ticks > done).nonzero()[0] for done in range(ticks.max())]
        self.events_processed += self.spec.n  # every node's timer fires, as in the engine
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for active in rounds:
            balances = self.balance.take(active)
            coin = self.rng.random(len(active))
            sends = coin < self.pro_lut.take(self.kernel.lut_index(balances))
            banking = (~sends).nonzero()[0]
            self._bank(active.take(banking), balances.take(banking))
            sending = sends.nonzero()[0]
            if len(sending):
                senders = active.take(sending)
                peers = self._select_peers(senders)
                if self.may_lack_peer:
                    # No online neighbor: the send is impossible; bank
                    # the round's token instead (clamped at C).
                    stuck = (peers < 0).nonzero()[0]
                    self._bank(senders.take(stuck), balances.take(sending.take(stuck)))
                    sent = (peers >= 0).nonzero()[0]
                    senders, peers = senders.take(sent), peers.take(sent)
                src_parts.append(senders)
                dst_parts.append(peers)
        # Bootstrap for never-proactive strategies: one kicked message
        # per online node in slot 0, outside the token accounting.
        if slot == 0 and self.strategy.bootstrap_kick:
            starters = self._online_ids()
            peers = self._select_peers(starters)
            sent = (peers >= 0).nonzero()[0]
            src_parts.append(starters.take(sent))
            dst_parts.append(peers.take(sent))
        src, dst = _joined(src_parts), _joined(dst_parts)
        self._record_data_sends(src)
        return dst, self.update.take(src)

    def _hop_loop(self, dst, payload):
        """Deliver messages in transfer-time sub-rounds until the slot ends."""
        rng, stats, claim, update = self.rng, self.stats, self._claim, self.update
        for hop in range(self.max_hops):
            count = len(dst)
            if not count:
                break
            if hop and count <= self.min_hop_batch:
                break  # trickling tail: carry into the next slot's batch
            # i.i.d. in-transit loss, then offline destinations (only
            # carried-over messages can meet one: within a slot the
            # availability mask is frozen and peers were drawn online).
            if self.loss_rate > 0.0 or self.has_churn:
                alive, kept = None, count
                if self.loss_rate > 0.0:
                    alive = rng.random(count) >= self.loss_rate
                    kept = np.count_nonzero(alive)
                    stats.lost_dropped += count - kept
                if self.has_churn:
                    online = self.online.take(dst)
                    alive = online if alive is None else alive & online
                alive = alive.nonzero()[0]
                dst, payload = dst.take(alive), payload.take(alive)
                count = len(dst)
                stats.lost_offline += kept - count
            stats.delivered += count
            self.events_processed += count
            if not self.can_react:
                # Nothing reacts, so arrival order cannot matter: one
                # scatter-max adopts the whole hop and nothing is sent on.
                np.maximum.at(update, dst, payload)
                return dst[:0], payload[:0]
            # Multiple arrivals at one node within a hop are processed
            # sequentially (state update, reaction, then the next
            # arrival); first-arrival batches replay that order while
            # keeping the common no-duplicates case one big batch.
            # Reaction *sends* are order-independent once the spend
            # amounts are fixed, so peer selection is coalesced across
            # batches into a single draw.
            node_parts: List[np.ndarray] = []
            amount_parts: List[np.ndarray] = []
            while count:
                # One-arrival-per-destination selection in O(m): every
                # message scatters its index into the claim buffer
                # (duplicate writes resolve in order, last wins) and the
                # survivors read their own index back. No sort, no
                # O(n) histogram.
                order = np.arange(count)
                claim[dst] = order
                chosen = claim.take(dst) == order
                first = chosen.nonzero()[0]
                if len(first) == count:
                    batch_dst, batch_payload = dst, payload
                    count = 0
                else:
                    batch_dst, batch_payload = dst.take(first), payload.take(first)
                    later = (~chosen).nonzero()[0]
                    dst, payload = dst.take(later), payload.take(later)
                    count = len(later)
                # The batch's nodes are unique: write it whole.
                held = update.take(batch_dst)
                useful = batch_payload > held
                update[batch_dst] = np.maximum(held, batch_payload)
                node_parts.append(batch_dst)
                amount_parts.append(self._react(batch_dst, useful))
            dst, payload = self._emit_reactions(node_parts, amount_parts)
        return dst, payload

    def _react(self, nodes: np.ndarray, useful: np.ndarray):
        """ONMESSAGE's reactive half: spend tokens for one arrival batch.

        Returns each node's spend, zeros included (``np.repeat`` drops
        them): the message emission is deferred to :meth:`_emit_reactions`
        so one peer draw covers the whole hop.
        """
        balances = self.balance.take(nodes)
        # randRound: integer part + Bernoulli(fraction), via the shared
        # kernel's fused LUTs (one uniform per arrival, the historical
        # draw pattern — existing seeds stay bit-identical)
        count = self.kernel.reaction_counts(balances, useful, self.rng)
        if not self.overdraft:
            np.minimum(count, balances, out=count)
        self.balance[nodes] = balances - count  # unique nodes
        return count

    def _emit_reactions(self, node_parts, amount_parts):
        """Turn the hop's token spends into next-hop messages."""
        senders = np.repeat(_joined(node_parts), _joined(amount_parts))
        peers = self._select_peers(senders)
        if self.may_lack_peer:
            unsent = senders.take((peers < 0).nonzero()[0])
            if len(unsent):
                # No online peer for some copies: refund those tokens.
                np.add.at(self.balance, unsent, 1)
                if self.capacity is not None:
                    np.minimum(self.balance, self.capacity, out=self.balance)
            sent = (peers >= 0).nonzero()[0]
            senders, peers = senders.take(sent), peers.take(sent)
        self._record_data_sends(senders)
        return peers, self.update.take(senders)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _bank(self, nodes: np.ndarray, balances: np.ndarray) -> None:
        """Grant the round's token(s) to the given nodes, clamped at C.

        ``nodes`` are unique; ``balances`` are their current balances,
        which the caller has gathered already.
        """
        if not len(nodes):
            return
        balances = balances + self.grant
        if self.capacity is not None:
            np.minimum(balances, self.capacity, out=balances)
        self.balance[nodes] = balances

    def _record_data_sends(self, src: np.ndarray) -> None:
        count = len(src)
        if not count:
            return
        self.stats.sent += count
        self.stats.by_kind["data"] = self.stats.by_kind.get("data", 0) + count
        if self._sends_this_slot is not None:
            self._sends_this_slot += np.bincount(src, minlength=self.spec.n)

    def _online_ids(self) -> np.ndarray:
        """Indices of the nodes online right now (everyone, without churn)."""
        return self.online.nonzero()[0] if self.has_churn else self._everyone

    def _sample(self, now: float) -> None:
        update, balance = self.update, self.balance
        if self.has_churn:
            ids = self.online.nonzero()[0]
            if not len(ids):
                return
            update, balance = update.take(ids), balance.take(ids)
        if self.latest > 0:
            self.metric_series.append(now, self.latest - float(update.mean()))
        if self.token_series is not None:
            self.token_series.append(now, float(balance.mean()))

    # ------------------------------------------------------------------
    # §3.4 burst audit over slot windows
    # ------------------------------------------------------------------
    def audit_violations(self) -> List[RateLimitViolation]:
        """Check the burst bound over sliding slot windows.

        Windows of ``k ∈ {1, 5, 20}`` slots must hold at most
        ``burst_bound(k·Δ, Δ_min, C)`` sends per node, where ``Δ_min``
        is the fastest heterogeneous period (as the event-engine audit
        does). Sub-slot windows do not exist in the bulk-synchronous
        model; the k = 1 window is its sharpest statement.
        """
        if self.slot_sends is None or self.capacity is None or not self.slot_sends:
            return []
        spec = self.spec
        audit_period = spec.period * (1.0 - spec.period_spread)
        per_slot = np.stack(self.slot_sends)  # (slots, n)
        cumulative = np.cumsum(per_slot, axis=0)
        violations: List[RateLimitViolation] = []
        for window_slots in (1, 5, 20):
            if window_slots > len(per_slot):
                continue
            window = window_slots * spec.period
            bound = burst_bound(window, audit_period, self.capacity)
            sums = cumulative[window_slots - 1 :].copy()
            sums[1:] -= cumulative[: -window_slots]
            worst_slot = np.argmax(sums, axis=0)
            worst = sums[worst_slot, np.arange(sums.shape[1])]
            for node_id in (worst > bound).nonzero()[0]:
                violations.append(
                    RateLimitViolation(
                        node_id=int(node_id),
                        window_start=float(worst_slot[node_id]) * spec.period,
                        window_length=window,
                        sends=int(worst[node_id]),
                        bound=bound,
                    )
                )
        return violations
