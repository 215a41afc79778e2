"""`TokenAccountLimiter` — token account algorithms as admission control.

The paper's point is that token accounts make bursty reactive traffic
schedulable like proactive traffic; read as a serving primitive that is
exactly admission control: a request is a stimulus, a send is an
admission, and the §3.4 guarantee — *no key is admitted more than
``⌈t/Δ⌉ + C`` times in any window of length ``t``* — is the rate
contract a caller can size capacity against.

The limiter runs Algorithm 4 against wall-clock time instead of a
simulated round timer:

* every whole elapsed period ``Δ`` since a key was last touched banks
  one token into its :class:`~repro.core.account.TokenAccount` (clamped
  at the strategy's capacity ``C``, exactly like the simulated node
  whose proactive send found no peer);
* an incoming ``try_acquire`` plays ONMESSAGE: the strategy's
  :attr:`~repro.core.strategies.Strategy.decision_kernel` runs one
  reactive-then-proactive decision, and an admission spends one banked
  token;
* strategies that send proactively from an empty account (the pure
  proactive baseline, ``C = 0``) admit through a token-less *proactive
  slot* instead, paced at most once per period — the wall-clock analog
  of "one proactive send per round".

Burst-bound accounting (why §3.4 survives): every admission consumes
either a banked token or the paced proactive slot. In any window of
length ``t`` at most ``C`` tokens existed at the window start and at
most ``⌈t/Δ⌉`` accrue inside it; the proactive slot fires only for
capacity-0 strategies (whose accounts never hold tokens) at most once
per period. Either way admissions never exceed ``⌈t/Δ⌉ + C`` — the
bound :class:`repro.core.ratelimit.RateLimitAuditor` checks, and the
property tests drive the limiter with a synthetic clock to prove it for
every registered strategy.

Two deliberate divergences from the simulation defaults, both standard
for rate limiters and both inside the bound:

* new keys start with a **full** account (``initial_tokens=None`` means
  ``C``), so a fresh client gets its burst allowance immediately; pass
  ``initial_tokens=0`` for the paper's cold start;
* an LRU-evicted key that returns is indistinguishable from a fresh
  one — size ``max_keys`` to the working set.
"""

from __future__ import annotations

import random
import struct
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.account import TokenAccount
from repro.core.strategies import Strategy, make_strategy
from repro.serve.clock import Clock, monotonic_clock
from repro.serve.table import KeyState, Shard, ShardedTable

#: scale-relative tolerance for tick-grid comparisons — the same idea as
#: the auditor's window-edge epsilon: ``anchor + k·Δ`` accumulates float
#: noise, which must never cost (or mint) a whole token
_TICK_EPSILON = 1e-9

#: A decision's packed form, the wire's 17-byte ``DECISION`` frame: u16
#: length (=15), status, admitted, reason code (an index into
#: ``REASON_NAMES``), i32 balance, f64 retry. Defined here, re-exported by
#: :mod:`repro.serve.wire`: the batch core writes these records itself.
DECISION_STRUCT = struct.Struct("<HBBBid")
DECISION_FRAME_SIZE = DECISION_STRUCT.size
STATUS_DECISION = 1
REASON_NAMES: Tuple[Optional[str], ...] = (None, "reactive", "proactive", "exhausted")
REASON_CODES = {name: code for code, name in enumerate(REASON_NAMES) if name}


@dataclass(frozen=True, init=False)
class Decision:
    """The outcome of one :meth:`TokenAccountLimiter.try_acquire` call.

    ``reason`` is ``"reactive"`` or ``"proactive"`` for admissions
    (which Algorithm-4 branch granted the send) and ``"exhausted"`` for
    rejections. ``retry_after`` is the caller's backoff hint: seconds
    until the key's next token accrues (``None`` on admission). The
    wire framing is :func:`repro.serve.wire.encode_decision_binary`.
    """

    admitted: bool
    key: str
    reason: str
    #: token balance after the decision
    balance: int
    retry_after: Optional[float] = None

    # Hand-rolled init: the limiter constructs one Decision per request
    # on the hot path, where dataclass-generated frozen __init__ (one
    # object.__setattr__ per field) costs ~2.5x this. Field order and
    # defaults match the declarations above.
    def __init__(
        self,
        admitted: bool,
        key: str,
        reason: str,
        balance: int,
        retry_after: Optional[float] = None,
    ):
        self.__dict__["admitted"] = admitted
        self.__dict__["key"] = key
        self.__dict__["reason"] = reason
        self.__dict__["balance"] = balance
        self.__dict__["retry_after"] = retry_after

    def __bool__(self) -> bool:
        return self.admitted


class TokenAccountLimiter:
    """Thread-safe, wall-clock-driven admission control over token accounts.

    Parameters
    ----------
    strategy:
        A :class:`~repro.core.strategies.Strategy` instance, or a
        registry name resolved via ``make_strategy`` together with
        ``spend_rate`` / ``capacity``.
    period:
        The wall-clock round length Δ in seconds: every key accrues one
        token per period. The steady-state admission rate is ``1/period``
        per key; bursts are bounded by the strategy's capacity ``C``.
    spend_rate, capacity:
        Strategy parameters (``A``, ``C``) when ``strategy`` is a name.
    shards, max_keys:
        Account-table geometry; see :class:`repro.serve.table.ShardedTable`.
    clock:
        Zero-argument time source (default ``time.monotonic``); tests
        inject :class:`repro.serve.clock.ManualClock`.
    seed:
        Seeds the decision RNG (randomized rounding and the randomized
        strategy's proactive coin). One process-wide stream, as in a
        single simulated node.
    initial_tokens:
        Starting balance for new keys; ``None`` (default) starts full at
        the strategy's capacity, 0 reproduces the paper's cold start.

    Examples
    --------
    >>> from repro.serve import ManualClock, TokenAccountLimiter
    >>> clock = ManualClock()
    >>> limiter = TokenAccountLimiter("simple", capacity=2, period=1.0, clock=clock)
    >>> [bool(limiter.try_acquire("alice")) for _ in range(3)]
    [True, True, False]
    >>> _ = clock.advance(1.0)
    >>> bool(limiter.try_acquire("alice"))
    True
    """

    def __init__(
        self,
        strategy: Union[Strategy, str],
        *,
        period: float = 1.0,
        spend_rate: Optional[int] = None,
        capacity: Optional[int] = None,
        shards: int = 8,
        max_keys: int = 65536,
        clock: Clock = monotonic_clock,
        seed: Optional[int] = None,
        initial_tokens: Optional[int] = None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if isinstance(strategy, str):
            strategy = make_strategy(
                strategy, spend_rate=spend_rate, capacity=capacity
            )
        self.strategy = strategy
        self.period = float(period)
        cap = strategy.token_capacity
        if initial_tokens is None:
            initial_tokens = cap if cap is not None else 0
        if cap is not None and initial_tokens > cap:
            raise ValueError(
                f"initial_tokens {initial_tokens} exceeds the strategy's "
                f"token capacity {cap}"
            )
        self._initial_tokens = initial_tokens
        self._table = ShardedTable(shards=shards, max_keys=max_keys)
        self._clock = clock
        self._rng = random.Random(seed)
        #: the shared Algorithm-4 kernel (also used by the vectorized
        #: simulation backend) — scalar decisions and batched
        #: ``decide_many`` both run through it
        self._kernel = self.strategy.decision_kernel
        # Batch decisions draw from a NumPy generator (decide_many's
        # columnar draws); the lock covers it across shards, since
        # unlike the per-shard state the RNG is limiter-global.
        self._np_rng = np.random.default_rng(seed)
        self._np_rng_lock = threading.Lock()
        # Whether try_acquire_run's closed form is exact for this
        # strategy: a plain bounded bucket whose kernel is fully
        # deterministic (no randRound fraction, 0/1 proactive coin) and
        # never admits from an empty account. Deciding n back-to-back
        # requests at one timestamp is then an admit-prefix walk down
        # the balance — no per-request randomness to honor.
        kernel = self._kernel
        cap = self.strategy.token_capacity
        self._run_closed_form = (
            cap is not None
            and cap > 0
            and not kernel.clip_index
            and max(kernel._frac_list) == 0.0
            and all(p in (0.0, 1.0) for p in kernel._pro_list)
            and kernel._pro_list[0] == 0.0
        )

    # ------------------------------------------------------------------
    def _new_account(self) -> TokenAccount:
        """A fresh account for a newly seen (or LRU-recycled) key."""
        return TokenAccount(
            initial=self._initial_tokens,
            capacity=self.strategy.token_capacity,
            allow_overdraft=self.strategy.requires_overdraft,
        )

    def _advance(self, state: KeyState, now: float) -> None:
        """Credit every whole period elapsed since the key's anchor."""
        elapsed = now - state.anchor
        if elapsed <= 0:
            return
        ticks = int(elapsed / self.period + _TICK_EPSILON)
        if ticks <= 0:
            return
        state.anchor += ticks * self.period
        state.ticks_granted += ticks
        state.account.grant_many(ticks)

    def _retry_after(self, state: KeyState, now: float) -> float:
        """Seconds until the key's next admission opportunity."""
        if self.strategy.token_capacity == 0:
            # Capacity-0 strategies can only admit through the paced
            # proactive slot — ticks grant nothing (the clamp eats
            # them), so the tick grid must not shorten the hint.
            if state.last_proactive is not None:
                return max(0.0, state.last_proactive + self.period - now)
            return 0.0
        return max(0.0, state.anchor + self.period - now)

    def _settle(
        self,
        shard: Shard,
        state: KeyState,
        key: str,
        verdict: Optional[str],
        now: float,
    ) -> Decision:
        """Apply one kernel verdict to the key's account (§3.4 accounting).

        Shared by the scalar and batched paths: the caller holds the
        shard lock and has already advanced the account to ``now``.
        """
        account = state.account
        if verdict is not None:
            if account.balance >= 1 or account.allow_overdraft:
                # Both branches spend a banked token when one exists:
                # the proactive send consumes the round's token in the
                # paper too (only the skipped round banks it).
                account.withdraw(1)
                shard.admitted += 1
                return Decision(True, key, verdict, account.balance)
            if verdict == "proactive":
                # Token-less proactive slot (capacity-0 strategies):
                # at most one admission per period, the wall-clock
                # form of "one proactive send per round".
                last = state.last_proactive
                if last is None or now - last >= self.period * (1.0 - _TICK_EPSILON):
                    state.last_proactive = now
                    shard.admitted += 1
                    return Decision(True, key, "proactive", account.balance)
        shard.rejected += 1
        return Decision(
            False, key, "exhausted", account.balance, self._retry_after(state, now)
        )

    # ------------------------------------------------------------------
    def try_acquire(
        self, key: str, useful: bool = True, now: Optional[float] = None
    ) -> Decision:
        """One admission decision for ``key``; never blocks.

        ``useful`` is the Algorithm-4 usefulness flag: pass ``False``
        for low-priority traffic and the generalized strategy spends
        tokens at half rate on it (the randomized strategy rejects it
        outright when not proactively due). ``now`` overrides the clock
        for this call (tests and replay); a ``now`` earlier than the
        key's last decision clamps forward to it — backwards time must
        not corrupt the tick anchor or re-arm the proactive slot.
        """
        if now is None:
            now = self._clock()
        shard = self._table.shard_for(key)
        with shard.lock:
            state = shard.get_or_create(key, self._new_account, now)
            if now < state.last_now:
                now = state.last_now
            else:
                state.last_now = now
            self._advance(state, now)
            verdict = self._kernel.decide_one(
                state.account.balance, useful, self._rng
            )
            return self._settle(shard, state, key, verdict, now)

    def try_acquire_many(
        self,
        keys: Sequence[str],
        useful: Union[bool, Sequence[bool]] = True,
        now: Optional[float] = None,
    ) -> List[Decision]:
        """Batched admission: one :class:`Decision` per key, in order.

        The object form of the batch API (the wire path rides on
        :meth:`try_acquire_frames`): keys are grouped by owning shard,
        each shard lock is taken **once**, accounts advance in bulk, and
        the verdicts come from one columnar
        :meth:`~repro.core.kernel.DecisionKernel.decide_many` call per
        shard group instead of per-key scalar decisions.

        Semantics match a sequence of :meth:`try_acquire` calls at one
        ``now`` — the fused per-shard pass settles each position in
        order, so duplicate keys see the previous occurrence's spend —
        except that decisions for *different* keys draw from the batch
        RNG stream in shard order rather than input order. The §3.4
        burst bound is per key, so it is preserved exactly.

        ``useful`` is one flag for the whole batch or a sequence
        aligned with ``keys`` (else ``ValueError``, no account touched).
        """
        return self._acquire_batch(keys, useful, now, [None] * len(keys))

    def try_acquire_frames(
        self,
        keys: Sequence[str],
        useful: Union[bool, Sequence[bool]] = True,
        now: Optional[float] = None,
    ) -> bytearray:
        """:meth:`try_acquire_many` answered as packed wire records.

        Same decisions, counters and RNG draws, no :class:`Decision`
        objects: position ``i``'s record is packed at ``i *
        DECISION_FRAME_SIZE`` of the buffer, which the server writes to the
        socket as is (``wire.encode_decisions_binary`` of the object form).
        """
        frames = bytearray(len(keys) * DECISION_FRAME_SIZE)
        return self._acquire_batch(keys, useful, now, frames)

    def _acquire_batch(self, keys, useful, now, out):
        """Decide ``keys`` into ``out``, one lock hold per shard; returns ``out``."""
        count = len(keys)
        if not (useful is True or useful is False) and len(useful) != count:
            raise ValueError(f"{len(useful)} useful flags for {count} keys")
        if not count:
            return out
        if now is None:
            now = self._clock()
        table = self._table
        shards = table.shards
        if table._mask == 0:
            groups: Dict[int, List[int]] = {0: list(range(count))}
        else:
            # Group input positions by owning shard (same stable-hash
            # routing as shard_for; the table's route memo makes the
            # common repeated-key case a dict hit).
            shard_index = table.shard_index
            route_cache = table._route_cache
            groups = {}
            for position, key in enumerate(keys):
                index = route_cache.get(key)
                if index is None:
                    index = shard_index(key)
                group = groups.get(index)
                if group is None:
                    groups[index] = [position]
                else:
                    group.append(position)
        for index, positions in groups.items():
            shard = shards[index]
            with shard.lock:
                self._decide_batch(shard, keys, useful, positions, now, out)
        return out

    def try_acquire_run(
        self,
        key: str,
        count: int,
        useful: bool = True,
        now: Optional[float] = None,
    ) -> Optional[tuple]:
        """``count`` back-to-back decisions for one key, in closed form.

        The bulk seam the cluster's ``ACQUIRE_BULK`` opcode rides on:
        for deterministic strategies (see ``_run_closed_form``) the
        outcome of n consecutive requests at one ``now`` is always an
        admit prefix followed by rejections, so one balance walk under
        the shard lock replaces n per-request decisions and Decision
        allocations. Returns ``(admits, rejects, balance, reason,
        retry_after)`` — ``balance`` is the pre-spend balance (admitted
        requests observed ``balance-1 … balance-admits``, rejected ones
        ``balance-admits``) — or ``None`` when the closed form does not
        apply (randomized kernels, graded usefulness, overdraft or
        capacity-0 strategies, or a run that would mix admit reasons);
        the caller then falls back to :meth:`try_acquire_many`, which
        is exact for every strategy. Counters, LRU touch and tick
        accounting match the generic path exactly.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if not self._run_closed_form or not (useful is True or useful is False):
            return None
        if now is None:
            now = self._clock()
        kernel = self._kernel
        int_lut = kernel._int_list
        pro_lut = kernel._pro_list
        offset = kernel.lut_span if useful else 0
        shard = self._table.shard_for(key)
        with shard.lock:
            state = shard.get_or_create(key, self._new_account, now)
            if now < state.last_now:
                now = state.last_now
            else:
                state.last_now = now
            self._advance(state, now)
            account = state.account
            balance = account.balance
            # Pure walk first — no state mutated until the run is known
            # to be single-reason, so a None return leaves the account
            # exactly where try_acquire_many's fallback expects it
            # (_advance at the same ``now`` is a no-op on retry).
            admits = 0
            reason: Optional[str] = None
            x = balance
            while admits < count and x >= 1:
                if int_lut[x + offset] >= 1:
                    branch = "reactive"
                elif pro_lut[x] == 1.0:
                    branch = "proactive"
                else:
                    break
                if reason is None:
                    reason = branch
                elif branch != reason:
                    return None
                x -= 1
                admits += 1
            account.balance = x
            account.spent += admits
            shard.admitted += admits
            rejects = count - admits
            shard.rejected += rejects
            retry = 0.0
            if rejects:
                retry = state.anchor + self.period - now
                if retry < 0.0:
                    retry = 0.0
            return admits, rejects, balance, reason or "exhausted", retry

    def _decide_batch(
        self,
        shard: Shard,
        keys: Sequence[str],
        useful: Union[bool, Sequence[bool]],
        positions: List[int],
        now: float,
        out: Union[List[Optional[Decision]], bytearray],
    ) -> None:
        """Decide one shard's positions, in order, under its lock.

        The batch hot loop. All uniforms for the sub-batch are drawn up
        front as one ``(n, 2)`` block — row-major, so the stream is
        bit-identical to ``n`` sequential scalar decisions on the same
        generator (the kernel's two-draw contract) — and a single fused
        pass per key then advances the account, decides through the
        kernel's LUTs and settles. ``get_or_create`` / ``_advance`` /
        ``_settle`` are inlined for their common cases (key creation,
        graded usefulness, capacity-0 slots and overdraft still route
        through the shared methods): at ~1-2 µs per decision the
        method-call and list-staging overhead of a layered
        implementation would eat the batch speedup.

        Every iteration ends in four locals (admitted, reason code, balance
        after, retry) and **one** emission point: a :class:`Decision` into
        a list ``out``, or the packed record into a ``bytearray`` ``out``.
        """
        n = len(positions)
        entries_get = shard.entries.get
        move_to_end = shard.entries.move_to_end
        get_or_create = shard.get_or_create
        new_account = self._new_account
        settle = self._settle
        period = self.period
        cap = self.strategy.token_capacity
        # Plain token bucket (finite positive capacity): no overdraft
        # and no capacity-0 proactive slot, so rejects inline too.
        plain = cap is not None and cap > 0
        kernel = self._kernel
        int_lut = kernel._int_list
        frac_lut = kernel._frac_list
        pro_lut = kernel._pro_list
        span = kernel.lut_span
        lut_max = kernel.lut_max
        decide_drawn = kernel.decide_one_drawn
        scalar_useful = useful is True or useful is False
        with self._np_rng_lock:
            draws = self._np_rng.random((n, 2))
        uniforms = draws.ravel().tolist()
        packed = isinstance(out, bytearray)
        pack = DECISION_STRUCT.pack_into
        size, status = DECISION_FRAME_SIZE, STATUS_DECISION
        body = size - 2
        reason_names = REASON_NAMES
        alloc = object.__new__
        admits = 0
        rejects = 0
        cursor = 0
        try:
            for position in positions:
                key = keys[position]
                state = entries_get(key)
                if state is None:
                    state = get_or_create(key, new_account, now)
                else:
                    move_to_end(key)
                # stale-now clamp, per key (see try_acquire)
                key_now = now
                if key_now < state.last_now:
                    key_now = state.last_now
                else:
                    state.last_now = key_now
                account = state.account
                elapsed = key_now - state.anchor
                if elapsed > 0:
                    ticks = int(elapsed / period + _TICK_EPSILON)
                    if ticks > 0:
                        # inline _advance + TokenAccount.grant_many
                        state.anchor += ticks * period
                        state.ticks_granted += ticks
                        if cap is not None:
                            headroom = cap - account.balance
                            if ticks < headroom:
                                headroom = ticks
                            elif headroom < 0:
                                headroom = 0
                            ticks = headroom
                        account.balance += ticks
                        account.granted += ticks
                balance = account.balance
                u_round = uniforms[cursor]
                u_coin = uniforms[cursor + 1]
                cursor += 2
                flag = useful if scalar_useful else useful[position]
                # the kernel's verdict as a reason code (0 = stay silent)
                if (flag is True or flag is False) and 0 <= balance <= lut_max:
                    # inline decide_one_drawn's LUT fast path
                    lut_key = balance + span if flag else balance
                    if int_lut[lut_key] + (u_round < frac_lut[lut_key]) >= 1:
                        code = 1
                    else:
                        probability = pro_lut[balance]
                        if probability >= 1.0 or (
                            probability > 0.0 and u_coin < probability
                        ):
                            code = 2
                        else:
                            code = 0
                else:
                    verdict = decide_drawn(balance, flag, u_round, u_coin)
                    code = REASON_CODES.get(verdict, 0)
                if code and balance >= 1:
                    # inline _settle's token-spend admit
                    balance -= 1
                    account.balance = balance
                    account.spent += 1
                    admits += 1
                    admitted = True
                    retry = 0.0
                elif plain and code != 2:
                    # inline _settle's plain reject (silent verdict, or a
                    # reactive verdict against an empty account)
                    rejects += 1
                    admitted = False
                    code = 3
                    retry = state.anchor + period - key_now
                    if retry < 0.0:
                        retry = 0.0
                else:
                    # capacity-0 slot, overdraft: the shared path (credits itself)
                    settled = settle(shard, state, key, reason_names[code], key_now)
                    admitted = settled.admitted
                    code = REASON_CODES[settled.reason]
                    balance = settled.balance
                    retry = settled.retry_after or 0.0
                # the one emission point
                if packed:
                    at = position * size
                    pack(out, at, body, status, admitted, code, balance, retry)
                else:
                    # skips the frozen constructor's overhead (an admission's
                    # retry_after falls back to the class default, None)
                    decision = alloc(Decision)
                    fields = decision.__dict__
                    fields["admitted"] = admitted
                    fields["key"] = key
                    fields["reason"] = reason_names[code]
                    fields["balance"] = balance
                    if not admitted:
                        fields["retry_after"] = retry
                    out[position] = decision
        finally:
            # on an exception too: the positions decided so far did spend
            shard.admitted += admits
            shard.rejected += rejects

    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        """Total admissions (summed over the per-shard counters)."""
        return self._table.admitted

    @property
    def rejected(self) -> int:
        """Total rejections (summed over the per-shard counters)."""
        return self._table.rejected

    def balance(self, key: str) -> Optional[int]:
        """The key's current banked balance, or ``None`` if unseen."""
        shard = self._table.shard_for(key)
        with shard.lock:
            state = shard.entries.get(key)
            return None if state is None else state.account.balance

    def __len__(self) -> int:
        return len(self._table)

    def stats(self) -> dict:
        """A JSON-ready snapshot of the limiter's aggregate counters."""
        return {
            "strategy": self.strategy.describe(),
            "period": self.period,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "keys": len(self._table),
            "evictions": self._table.evictions,
        }
