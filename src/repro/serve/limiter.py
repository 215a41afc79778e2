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
from collections import defaultdict
from dataclasses import dataclass
from operator import length_hint
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

_copy_record = struct.Struct(f"{DECISION_FRAME_SIZE}s").pack_into
_new_object = object.__new__

#: the ranks (and positions) of a batch of one
_FIRST = (0,)


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
        #: simulation backend): every verdict here is its tables' or its
        #: ``decide_one_drawn``'s
        self._kernel = self.strategy.decision_kernel
        # Batch decisions draw from a NumPy generator (one ``(n, 2)`` block
        # per shard group); the lock covers it across shards, since unlike
        # the per-shard state the RNG is limiter-global.
        self._np_rng = np.random.default_rng(seed)
        self._np_rng_lock = threading.Lock()
        #: uniforms owed to batches that could not read them (``_decide_batch``)
        self._np_rng_skipped = 0
        kernel = self._kernel
        # No decision reads a uniform: a deterministic kernel whose balances
        # never leave its tables (no overdraft, a declared capacity). Graded
        # (non-bool) usefulness still draws — it bypasses the tables.
        self._drawless = kernel.deterministic and not kernel.clip_index
        # Whether try_acquire_run applies: n back-to-back requests at one
        # timestamp are then an admit prefix walking down the balance and
        # a reject tail — a plain bounded bucket (never admits from empty).
        self._run_closed_form = bool(
            self._drawless and cap > 0 and kernel.pro_lut[0] == 0.0
        )
        # What _account_pass reads per call, gathered once (the LUT list
        # mirrors are the one place serve/ reaches into the kernel).
        self._step_constants = (
            self.period,
            self.period * (1.0 - _TICK_EPSILON),  # the proactive slot's gap
            cap,
            self.strategy.requires_overdraft,
            not kernel.clip_index,  # balances never leave the tables
        )
        self._step_tables = (
            kernel._int_list,
            kernel._frac_list,
            kernel._pro_list,
            kernel.lut_span,
            kernel.lut_max,
        )

    # ------------------------------------------------------------------
    def _new_account(self) -> TokenAccount:
        """A fresh account for a newly seen (or LRU-recycled) key."""
        return TokenAccount(
            initial=self._initial_tokens,
            capacity=self.strategy.token_capacity,
            allow_overdraft=self.strategy.requires_overdraft,
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

        A batch of one through :meth:`_account_pass`; the two uniforms
        come from the scalar generator, and only when something can read
        them (a randomized kernel, overdraft, a graded flag).
        """
        if now is None:
            now = self._clock()
        plain_flag = useful is True or useful is False
        uniforms = None
        out: List[Optional[Decision]] = [None]
        table = self._table
        shard = table.shards[table.shard_index(key)]
        with shard.lock:
            state = shard.get_or_create(key, self._new_account, now)
            if not (plain_flag and self._drawless):
                uniforms = (self._rng.random(), self._rng.random())
            self._account_pass(
                shard,
                ((state, _FIRST),),
                (key,),
                useful if plain_flag else (useful,),
                _FIRST,
                now,
                out,
                uniforms,
            )
        return out[0]

    def try_acquire_many(
        self,
        keys: Sequence[str],
        useful: Union[bool, Sequence[bool]] = True,
        now: Optional[float] = None,
    ) -> List[Decision]:
        """Batched admission: one :class:`Decision` per key, in order.

        The object form of the batch API (the wire path rides on
        :meth:`try_acquire_frames`): keys are grouped by owning shard,
        each shard lock is taken **once**, and under it every key of the
        group is decided **once** — one clock clamp, one tick credit and
        a walk of its positions down the balance (:meth:`_decide_batch`).

        Semantics match a sequence of :meth:`try_acquire` calls at one
        ``now``: table lookups, creations and evictions happen in input
        order, and a key's positions settle in input order, so a repeat
        sees the previous occurrence's spend — except that decisions
        for *different* keys draw from the batch RNG stream in shard
        order rather than input order. The §3.4 burst bound is per key,
        so it is preserved exactly.

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
        plain_flags = useful is True or useful is False
        if not plain_flags:
            if len(useful) != count:
                raise ValueError(f"{len(useful)} useful flags for {count} keys")
            plain_flags = set(map(type, useful)) <= {bool}
        if not count:
            return out
        if now is None:
            now = self._clock()
        drawless = self._drawless and plain_flags
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
            groups = defaultdict(list)
            for position, key in enumerate(keys):
                index = route_cache.get(key)
                if index is None:
                    index = shard_index(key)
                groups[index].append(position)
        for index, positions in groups.items():
            shard = shards[index]
            with shard.lock:
                self._decide_batch(shard, keys, useful, positions, now, out, drawless)
        return out

    def try_acquire_run(
        self,
        key: str,
        count: int,
        useful: bool = True,
        now: Optional[float] = None,
    ) -> Optional[tuple]:
        """``count`` back-to-back decisions for one key, as one aggregate.

        The bulk seam the cluster's ``ACQUIRE_BULK`` opcode rides on:
        :meth:`_account_pass` for one state and ``count`` positions with
        nothing emitted per request. For deterministic strategies (see
        ``_run_closed_form``) the outcome at one ``now`` is an admit
        prefix followed by rejections, so the walk stops at the first
        reject. Returns ``(admits, rejects, balance, reason,
        retry_after)`` — ``balance`` is the pre-spend balance (admitted
        requests observed ``balance-1 … balance-admits``, rejected ones
        ``balance-admits``) — or ``None`` when that shape does not apply
        (randomized kernels, graded usefulness, overdraft or capacity-0
        strategies, or a run that mixes admit reasons, which is taken
        back); the caller then falls back to :meth:`try_acquire_many`,
        which is exact for every strategy. Counters, LRU touch and tick
        accounting match the generic path exactly.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if not self._run_closed_form or not (useful is True or useful is False):
            return None
        if now is None:
            now = self._clock()
        ranks = range(count)
        shard = self._table.shard_for(key)
        with shard.lock:
            state = shard.get_or_create(key, self._new_account, now)
            admits, rejects, reasons, retry = self._account_pass(
                shard, ((state, ranks),), None, useful, ranks, now, None, None
            )
            account = state.account
            if reasons == 3:
                # reactive and proactive admits both: undo the spend (the
                # clamp and tick credit are a no-op on the fallback's retry)
                account.balance += admits
                account.spent -= admits
                shard.admitted -= admits
                shard.rejected -= rejects
                return None
            balance = account.balance + admits
            return admits, rejects, balance, REASON_NAMES[reasons] or "exhausted", retry

    def _decide_batch(
        self,
        shard: Shard,
        keys: Sequence[str],
        useful: Union[bool, Sequence[bool]],
        positions: List[int],
        now: float,
        out: Union[List[Optional[Decision]], bytearray],
        drawless: bool,
    ) -> None:
        """Decide one shard's positions under its lock: the table pass.

        In input order, each position looks its key up (LRU touch,
        creation, eviction — exactly what n sequential calls do) and
        joins its :class:`KeyState`'s run by **rank** in the shard group;
        a key evicted and reborn inside the batch is two states and two
        runs. :meth:`_account_pass` then decides each state once — in a
        ``finally``, so the positions gathered before a failing lookup
        still spend and are counted.

        The group's uniforms are one ``(n, 2)`` block, row-major: rank
        ``r`` reads draws ``2r`` and ``2r + 1``, the stream n sequential
        scalar decisions on the generator would see (the kernel's
        two-draw contract). A ``drawless`` group reads none, so the
        block is only *owed*: the generator jumps ahead by what was
        skipped before its next real draw, and every later draw is the
        one it would have been.
        """
        n = len(positions)
        uniforms = None
        with self._np_rng_lock:
            if drawless:
                self._np_rng_skipped += 2 * n
            else:
                if self._np_rng_skipped:
                    self._np_rng.bit_generator.advance(self._np_rng_skipped)
                    self._np_rng_skipped = 0
                uniforms = self._np_rng.random((n, 2)).ravel().tolist()
        entries_get = shard.entries.get
        move_to_end = shard.entries.move_to_end
        get_or_create = shard.get_or_create
        new_account = self._new_account
        runs: Dict[KeyState, List[int]] = {}
        runs_get = runs.get
        try:
            for rank, position in enumerate(positions):
                key = keys[position]
                state = entries_get(key)
                if state is None:
                    state = get_or_create(key, new_account, now)
                else:
                    move_to_end(key)
                run = runs_get(state)
                if run is None:  # (a defaultdict's miss costs twice this one)
                    runs[state] = [rank]
                else:
                    run.append(rank)
        finally:
            self._account_pass(
                shard, runs.items(), keys, useful, positions, now, out, uniforms
            )

    def _account_pass(self, shard, runs, keys, useful, positions, now, out, uniforms):
        """The account step, once per state: scalar, batch and run all end here.

        ``runs`` yields ``(state, ranks)``. Per state: clamp a stale
        ``now`` forward, credit every whole period since the anchor and
        read the balance — once; then walk the state's ranks down it. Per
        rank that leaves the kernel's verdict through its LUTs
        (``decide_one_drawn`` for graded flags and balances off the
        tables) on ``uniforms[2r]`` and ``uniforms[2r + 1]`` — ``None``
        when nothing can read one — the §3.4 settlement and **one**
        emission point. The shard counters move once per pass, on an
        exception too.

        Settlement: a verdict spends a banked token when one exists (the
        proactive send consumes the round's token in the paper too) or
        the account may overdraw; a proactive verdict against an empty
        account takes the token-less slot — at most one per period, the
        wall-clock form of "one proactive send per round"; anything else
        is ``exhausted`` with a retry hint (the slot's for capacity 0,
        where ticks grant nothing, else the tick grid's). With one flag
        for the pass and no uniforms a reject is final — balance, verdict
        and hint cannot change — so the rest of the state's ranks get
        the same answer without being decided.

        Emission: a :class:`Decision` into a list ``out`` at
        ``positions[rank]``, the packed record into a ``bytearray``, or
        for ``None`` (a run) nothing but the admit reason codes, or-ed
        together. Returns ``(admits, rejects, those codes, last retry hint)``.
        """
        period, slot_gap, cap, overdraft, in_table = self._step_constants
        int_lut, frac_lut, pro_lut, span, lut_max = self._step_tables
        flag = useful  # one flag for the pass, else rebound per rank
        one_flag = useful is True or useful is False
        tabled = one_flag and in_table
        final_reject = one_flag and uniforms is None
        packed = type(out) is bytearray
        pack = DECISION_STRUCT.pack_into
        size, status = DECISION_FRAME_SIZE, STATUS_DECISION
        body = size - 2
        admits = rejects = reasons = 0
        retry = 0.0
        u_round = u_coin = 1.0  # never read when ``uniforms`` is None
        try:
            for state, ranks in runs:
                # stale-now clamp, per key (see try_acquire)
                key_now = now
                if key_now < state.last_now:
                    key_now = state.last_now
                else:
                    state.last_now = key_now
                account = state.account
                balance = account.balance
                elapsed = key_now - state.anchor
                if elapsed > 0:
                    ticks = int(elapsed / period + _TICK_EPSILON)
                    if ticks > 0:
                        state.anchor += ticks * period
                        state.ticks_granted += ticks
                        if cap is not None and ticks > cap - balance:
                            ticks = max(0, cap - balance)
                        account.balance = balance = balance + ticks
                        account.granted += ticks
                walk = iter(ranks)
                for rank in walk:
                    position = positions[rank]
                    if not one_flag:
                        flag = useful[position]
                    if uniforms is not None:
                        u_round = uniforms[2 * rank]
                        u_coin = uniforms[2 * rank + 1]
                    # the kernel's verdict as a reason code (0 = stay silent)
                    if tabled or (
                        (flag is True or flag is False) and 0 <= balance <= lut_max
                    ):
                        lut_key = balance + span if flag else balance
                        if int_lut[lut_key] >= 1 or u_round < frac_lut[lut_key]:
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
                        verdict = self._kernel.decide_one_drawn(
                            balance, flag, u_round, u_coin
                        )
                        code = REASON_CODES.get(verdict, 0)
                    if code and (balance >= 1 or overdraft):
                        account.balance = balance = balance - 1
                        account.spent += 1
                        admits += 1
                        admitted = True
                        retry = 0.0
                    elif code == 2 and (
                        state.last_proactive is None
                        or key_now - state.last_proactive >= slot_gap
                    ):
                        state.last_proactive = key_now
                        admits += 1
                        admitted = True
                        retry = 0.0
                    else:
                        rejects += 1
                        admitted = False
                        code = 3
                        if cap != 0:
                            retry = state.anchor + period - key_now
                        elif state.last_proactive is None:
                            retry = 0.0
                        else:
                            retry = state.last_proactive + period - key_now
                        if retry < 0.0:
                            retry = 0.0
                    # the one emission point
                    if packed:
                        at = position * size
                        pack(out, at, body, status, admitted, code, balance, retry)
                    elif out is not None:
                        # skips the frozen constructor's overhead (an admission's
                        # retry_after falls back to the class default, None)
                        decision = _new_object(Decision)
                        fields = decision.__dict__
                        fields["admitted"] = admitted
                        fields["key"] = keys[position]
                        fields["reason"] = REASON_NAMES[code]
                        fields["balance"] = balance
                        if not admitted:
                            fields["retry_after"] = retry
                        out[position] = decision
                    elif admitted:
                        reasons |= code
                    if final_reject and not admitted:
                        rejects += length_hint(walk)
                        if packed:
                            record = bytes(out[at : at + size])
                            for rank in walk:
                                _copy_record(out, positions[rank] * size, record)
                        elif out is not None:
                            for rank in walk:  # frozen, so one object will do
                                out[positions[rank]] = decision
                        break
        finally:
            shard.admitted += admits
            shard.rejected += rejects
        return admits, rejects, reasons, retry

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
