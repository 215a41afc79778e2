"""TokenAccountLimiter property tests: the §3.4 bound, live.

The serving layer's core claim is that every registered strategy, run
as wall-clock admission control, keeps the paper's burst bound: no key
is admitted more than ``ceil(t/Δ) + C`` times in any window of length
``t``. These tests drive the limiter with a synthetic clock and feed
every admission timestamp into the *same* ``RateLimitAuditor`` the
simulation uses, so the serving layer is held to the exact §3.4 check
the paper's experiments pass.
"""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ratelimit import RateLimitAuditor, burst_bound
from repro.registry import strategies as strategy_registry
from repro.serve import ManualClock, TokenAccountLimiter, wire

#: one representative parameterization per registered strategy
STRATEGY_PARAMS = {
    "proactive": {},
    "simple": {"capacity": 5},
    "generalized": {"spend_rate": 3, "capacity": 6},
    "randomized": {"spend_rate": 3, "capacity": 6},
    "graded-generalized": {"spend_rate": 3, "capacity": 6},
    "graded-randomized": {"spend_rate": 3, "capacity": 6},
    "reactive": {},  # unbounded reference: no burst bound to audit
}

#: strategies whose admission sequence is deterministic under saturation
#: (graded-generalized reduces to generalized at grade 1.0)
DETERMINISTIC = ("proactive", "simple", "generalized", "graded-generalized")

PERIOD = 1.0
#: steps per period; 1/8 is exact in binary so tick edges are noise-free
STEP = PERIOD / 8


def all_registered_strategies():
    names = strategy_registry.names()
    assert set(names) == set(STRATEGY_PARAMS), (
        "a strategy was (un)registered; update STRATEGY_PARAMS so the "
        "serving layer's burst-bound property keeps covering the registry"
    )
    return names


def make_limiter(name: str, clock: ManualClock, **overrides) -> TokenAccountLimiter:
    kwargs = dict(STRATEGY_PARAMS[name])
    kwargs.update(overrides)
    return TokenAccountLimiter(
        name, period=PERIOD, clock=clock, seed=7, shards=1, max_keys=64, **kwargs
    )


def saturate(limiter: TokenAccountLimiter, clock: ManualClock, steps: int):
    """Hammer one key every STEP; return (admission_times, auditor)."""
    auditor = RateLimitAuditor(network=None)
    admissions = []
    for _ in range(steps):
        clock.advance(STEP)
        if limiter.try_acquire("k").admitted:
            auditor.record(0, clock.now)
            admissions.append(clock.now)
    return admissions, auditor


@pytest.mark.parametrize("name", all_registered_strategies())
def test_saturation_never_exceeds_burst_bound(name):
    clock = ManualClock()
    limiter = make_limiter(name, clock)
    capacity = limiter.strategy.token_capacity
    admissions, auditor = saturate(limiter, clock, steps=400)
    if capacity is None:
        # The purely reactive reference is the unbounded comparison
        # point in the paper, and the unbounded limiter here.
        assert len(admissions) == 400
        return
    violations = auditor.check(period=PERIOD, capacity=capacity)
    assert not violations, f"{name}: {violations[:3]}"


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_saturation_achieves_exactly_the_bound(name):
    """Full utilization: the admitted count *equals* the §3.4 allowance.

    Deterministic strategies admit every banked token (and the pure
    proactive baseline admits exactly once per period through the
    token-less slot), so under saturating demand the limiter is not
    just safe but tight — the paper's "proactive traffic shaping"
    claim, measured on the serving path.
    """
    clock = ManualClock()
    limiter = make_limiter(name, clock)
    capacity = limiter.strategy.token_capacity
    steps = 400
    admissions, _ = saturate(limiter, clock, steps)
    first, last = admissions[0], admissions[-1]
    whole_periods = int((last - first) / PERIOD + 1e-9)
    if capacity == 0:
        # one slot admission at first contact, then one per period
        expected = 1 + whole_periods
    else:
        # the initial full account drains instantly, then one per tick
        expected = capacity + int((clock.now - first) / PERIOD + 1e-9)
    assert len(admissions) == expected


def test_randomized_strategy_is_safe_and_near_tight():
    clock = ManualClock()
    limiter = make_limiter("randomized", clock)
    capacity = limiter.strategy.token_capacity
    steps = 1600
    admissions, auditor = saturate(limiter, clock, steps)
    assert not auditor.check(period=PERIOD, capacity=capacity)
    elapsed = steps * STEP
    ceiling = burst_bound(elapsed, PERIOD, capacity)
    assert len(admissions) <= ceiling
    # Every banked token has admission probability >= 1/A per attempt,
    # so with 8 attempts per period the token stream is nearly fully
    # spent: demand well above 80% of the ideal rate.
    assert len(admissions) >= 0.8 * (elapsed / PERIOD)


@pytest.mark.parametrize("name", ("simple", "proactive"))
def test_idle_gap_then_burst_stays_bounded(name):
    """Idle periods bank at most C tokens; the resume burst respects §3.4."""
    clock = ManualClock()
    limiter = make_limiter(name, clock)
    capacity = limiter.strategy.token_capacity
    auditor = RateLimitAuditor(network=None)

    def hammer(steps):
        for _ in range(steps):
            clock.advance(STEP)
            if limiter.try_acquire("k").admitted:
                auditor.record(0, clock.now)

    hammer(40)
    clock.advance(25.3 * PERIOD)  # long idle stretch, off the tick grid
    hammer(120)
    assert not auditor.check(period=PERIOD, capacity=capacity)
    # the post-idle burst is exactly the banked allowance, not 25 periods
    assert limiter.balance("k") is not None


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(("proactive", "simple", "generalized", "randomized")),
    schedule=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
            st.booleans(),
        ),
        min_size=10,
        max_size=120,
    ),
)
def test_arbitrary_schedules_never_violate_the_bound(name, schedule):
    """Hypothesis: any arrival/idle interleaving keeps every window legal."""
    clock = ManualClock()
    limiter = make_limiter(name, clock)
    capacity = limiter.strategy.token_capacity
    auditor = RateLimitAuditor(network=None)
    for advance, useful in schedule:
        clock.advance(advance)
        if limiter.try_acquire("k", useful=useful).admitted:
            auditor.record(0, clock.now)
    violations = auditor.check(period=PERIOD, capacity=capacity)
    assert not violations, violations[:3]


# ----------------------------------------------------------------------
# Semantics beyond the bound
# ----------------------------------------------------------------------
def test_cold_start_matches_the_paper_when_asked():
    clock = ManualClock()
    limiter = make_limiter("simple", clock, initial_tokens=0)
    assert not limiter.try_acquire("k").admitted  # empty account, C >= 1
    clock.advance(PERIOD)
    assert limiter.try_acquire("k").admitted


def test_keys_are_independent():
    clock = ManualClock()
    limiter = make_limiter("simple", clock)
    for _ in range(5):
        assert limiter.try_acquire("a").admitted
    assert not limiter.try_acquire("a").admitted
    assert limiter.try_acquire("b").admitted  # fresh key, fresh allowance


def test_useless_requests_spend_slower_on_generalized():
    clock = ManualClock()
    limiter = make_limiter("generalized", clock)  # A=3, C=6
    # REACTIVE(a, u=False) = floor((2 + a) / 6): 0 until a >= 4.
    admitted = [limiter.try_acquire("k", useful=False).admitted for _ in range(6)]
    assert admitted == [True, True, True, False, False, False]
    assert all(limiter.try_acquire("k", useful=True).admitted for _ in range(3))


def test_rejection_carries_a_retry_hint():
    clock = ManualClock()
    limiter = make_limiter("simple", clock)
    for _ in range(5):
        limiter.try_acquire("k")
    decision = limiter.try_acquire("k")
    assert not decision.admitted and decision.reason == "exhausted"
    assert decision.retry_after is not None
    assert 0.0 < decision.retry_after <= PERIOD
    clock.advance(decision.retry_after + 1e-6)
    assert limiter.try_acquire("k").admitted


def test_retry_hint_tracks_the_drifted_proactive_slot():
    """Capacity-0 hints must follow the slot, not the (useless) tick grid.

    The proactive slot drifts off the tick grid as soon as a request
    arrives mid-period; a client honoring ``retry_after`` must then be
    admitted, even though the next *tick* grants nothing at C = 0.
    """
    clock = ManualClock()
    limiter = make_limiter("proactive", clock)
    assert limiter.try_acquire("k").admitted  # slot at t = 0
    clock.advance(1.2)
    assert limiter.try_acquire("k").admitted  # slot drifts to t = 1.2
    clock.advance(0.3)
    decision = limiter.try_acquire("k")  # t = 1.5: slot frees at 2.2
    assert not decision.admitted
    assert decision.retry_after == pytest.approx(0.7)
    clock.advance(decision.retry_after)
    assert limiter.try_acquire("k").admitted


def test_decision_is_truthy_on_admit():
    clock = ManualClock()
    limiter = make_limiter("simple", clock)
    assert bool(limiter.try_acquire("k")) is True
    assert limiter.try_acquire("k").reason in ("reactive", "proactive")


def test_lru_eviction_recycles_idle_keys():
    clock = ManualClock()
    limiter = TokenAccountLimiter(
        "simple", capacity=2, period=PERIOD, clock=clock, shards=1, max_keys=8
    )
    for index in range(20):
        assert limiter.try_acquire(f"key-{index}").admitted
    assert len(limiter) <= 8
    assert limiter.stats()["evictions"] >= 12
    # key-0 was evicted: returning, it is indistinguishable from new
    assert limiter.balance("key-0") is None
    assert limiter.try_acquire("key-0").admitted


def test_thread_safety_accounting():
    limiter = TokenAccountLimiter(
        "generalized", spend_rate=2, capacity=10, period=0.001, shards=4, seed=3
    )
    per_thread = 2000
    threads = [
        threading.Thread(
            target=lambda worker=worker: [
                limiter.try_acquire(f"key-{(worker * 7 + i) % 13}")
                for i in range(per_thread)
            ]
        )
        for worker in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert limiter.admitted + limiter.rejected == 4 * per_thread
    assert limiter.admitted > 0 and limiter.rejected > 0


def test_owed_draws_survive_threads_and_keep_the_stream_position():
    """Batches a deterministic kernel decides without drawing only *owe*
    their uniforms, on a counter every shard's thread adds to: a lost
    update would leave the generator short of where a single-threaded
    twin's stands once a graded batch finally draws."""
    import sys

    def twin():
        return TokenAccountLimiter(
            "generalized",
            spend_rate=3,
            capacity=6,
            period=PERIOD,
            shards=8,
            seed=5,
            clock=ManualClock(),
        )

    threaded, serial = twin(), twin()
    batches = [
        [f"key-{worker}-{(i * 5 + j) % 17}" for j in range(23)]
        for worker in range(6)
        for i in range(40)
    ]
    workers = [
        threading.Thread(
            target=lambda mine=batches[worker::6]: [
                threaded.try_acquire_frames(batch, now=1.0) for batch in mine
            ]
        )
        for worker in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    for batch in batches:
        serial.try_acquire_frames(batch, now=1.0)
    assert threaded._np_rng_skipped == serial._np_rng_skipped == 2 * 23 * len(batches)
    graded = ["key-0-1", "key-3-2", "key-0-1"], [0.5, True, 0.25]
    assert threaded.try_acquire_frames(*graded, now=1.0) == serial.try_acquire_frames(
        *graded, now=1.0
    )
    assert threaded._np_rng_skipped == serial._np_rng_skipped == 0
    assert threaded._np_rng.bit_generator.state == serial._np_rng.bit_generator.state
    assert (threaded.admitted, threaded.rejected) == (serial.admitted, serial.rejected)


def test_invalid_construction():
    with pytest.raises(ValueError):
        TokenAccountLimiter("simple", capacity=5, period=0.0)
    with pytest.raises(ValueError):
        TokenAccountLimiter("simple", capacity=5, initial_tokens=9)
    with pytest.raises(ValueError):
        TokenAccountLimiter("no-such-strategy")


def test_burst_bound_helper_consistency():
    # the auditor and the limiter share one bound definition
    assert burst_bound(10.0, PERIOD, 5) == math.ceil(10.0) + 5


# ----------------------------------------------------------------------
# try_acquire_many: the batched decision path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", all_registered_strategies())
def test_batch_matches_singleton_batches(name):
    """One n-key batch == n one-key batches: the RNG stream contract.

    ``decide_many`` draws one ``(n, 2)`` uniform block row-major, so
    splitting the same workload into single-key calls consumes the
    identical stream — decisions must agree bit-for-bit, randomized
    strategies included.
    """
    keys = [f"key-{i}" for i in range(40)]
    clock = ManualClock()
    batched = make_limiter(name, clock)
    one_by_one = make_limiter(name, ManualClock())
    for round_index in range(4):
        clock.advance(0.4)
        together = batched.try_acquire_many(keys, now=clock.now)
        singles = [
            one_by_one.try_acquire_many([key], now=clock.now)[0] for key in keys
        ]
        assert [(d.admitted, d.reason, d.balance) for d in together] == [
            (d.admitted, d.reason, d.balance) for d in singles
        ], f"round {round_index}"


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_batch_matches_scalar_for_deterministic_strategies(name):
    clock_a, clock_b = ManualClock(), ManualClock()
    scalar = make_limiter(name, clock_a)
    batched = make_limiter(name, clock_b)
    keys = [f"key-{i}" for i in range(10)]
    for _ in range(30):
        clock_a.advance(STEP)
        clock_b.advance(STEP)
        expected = [scalar.try_acquire(key, now=clock_a.now) for key in keys]
        got = batched.try_acquire_many(keys, now=clock_b.now)
        assert [(d.admitted, d.reason, d.balance, d.retry_after) for d in got] == [
            (d.admitted, d.reason, d.balance, d.retry_after) for d in expected
        ]
    assert scalar.admitted == batched.admitted
    assert scalar.rejected == batched.rejected


def test_batch_duplicate_keys_settle_in_input_order():
    """Repeats of one key inside a batch see the previous repeat's spend."""
    clock = ManualClock()
    limiter = make_limiter("simple", clock)  # C = 5, starts full
    decisions = limiter.try_acquire_many(["k"] * 8, now=clock.now)
    assert [d.admitted for d in decisions] == [True] * 5 + [False] * 3
    assert [d.balance for d in decisions[:5]] == [4, 3, 2, 1, 0]
    # interleaved duplicates keep per-position order too
    clock.advance(100 * PERIOD)
    mixed = limiter.try_acquire_many(["a", "k", "a", "k", "a"], now=clock.now)
    assert [d.key for d in mixed] == ["a", "k", "a", "k", "a"]
    assert [d.balance for d in mixed] == [4, 4, 3, 3, 2]


def test_batch_counters_and_multi_shard_routing():
    limiter = TokenAccountLimiter(
        "simple", capacity=2, period=PERIOD, clock=ManualClock(), shards=4,
        max_keys=256, seed=3,
    )
    keys = [f"key-{i}" for i in range(50)] * 2  # each key twice
    decisions = limiter.try_acquire_many(keys, now=0.0)
    assert len(decisions) == 100
    assert limiter.admitted + limiter.rejected == 100
    assert limiter.admitted == sum(d.admitted for d in decisions) == 100
    decisions = limiter.try_acquire_many(keys, now=0.0)  # accounts now empty
    assert limiter.rejected == sum(not d.admitted for d in decisions) == 100


def test_batch_empty_and_per_key_usefulness():
    clock = ManualClock()
    limiter = make_limiter("generalized", clock)  # A=3, C=6
    assert limiter.try_acquire_many([]) == []
    # REACTIVE(a, False) = floor((2 + a) / 6) = 0 below balance 4: the
    # useless request must be rejected while useful ones are admitted.
    limiter.try_acquire_many(["k", "k"], now=clock.now)  # drain 6 -> 4
    decisions = limiter.try_acquire_many(
        ["k", "k"], useful=[True, False], now=clock.now
    )
    assert decisions[0].admitted
    assert not decisions[1].admitted


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(("proactive", "simple", "generalized", "randomized")),
    rounds=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
            st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=9),
        ),
        min_size=5,
        max_size=40,
    ),
)
def test_batched_schedules_never_violate_the_bound(name, rounds):
    """Hypothesis: §3.4 holds per key under arbitrary *batched* demand,
    duplicate keys within a batch included."""
    clock = ManualClock()
    limiter = make_limiter(name, clock)
    capacity = limiter.strategy.token_capacity
    auditors = {key: RateLimitAuditor(network=None) for key in "abc"}
    for advance, keys in rounds:
        clock.advance(advance)
        for decision in limiter.try_acquire_many(keys, now=clock.now):
            if decision.admitted:
                auditors[decision.key].record(0, clock.now)
    if capacity is None:
        return
    for key, auditor in auditors.items():
        violations = auditor.check(period=PERIOD, capacity=capacity)
        assert not violations, (key, violations[:3])


def test_batch_refuses_misaligned_useful_before_touching_any_account():
    """Regression: a ``useful`` sequence shorter than ``keys`` used to
    raise ``IndexError`` halfway through a shard group, after earlier
    positions had spent tokens that no counter recorded."""
    limiter = make_limiter("simple", ManualClock())
    for acquire in (limiter.try_acquire_many, limiter.try_acquire_frames):
        for flags in ([True, True], [True] * 4, []):
            with pytest.raises(ValueError, match="useful flags for 3 keys"):
                acquire(["a", "b", "c"], flags, now=0.0)
    assert len(limiter) == 0
    assert limiter.admitted == limiter.rejected == 0
    decisions = limiter.try_acquire_many(["a", "b"], [True, False], now=0.0)
    assert [d.admitted for d in decisions] == [True, True]


def test_batch_counters_survive_an_exception_mid_group():
    """The positions decided before a failure spent tokens, so they are
    counted: ``STATS`` equals decisions made whatever ends the loop."""
    limiter = make_limiter("simple", ManualClock())  # one shard, C = 5
    for acquire in (limiter.try_acquire_many, limiter.try_acquire_frames):
        before = limiter.admitted
        with pytest.raises(TypeError):
            acquire(["a", "a", ["unhashable"], "a"], now=0.0)
        assert limiter.admitted == before + 2 and limiter.rejected == 0
    assert limiter.balance("a") == 1


#: strategies whose batched decisions equal n scalar ``try_acquire``
#: calls (no randRound fraction, no proactive coin): the scalar path
#: draws from a different generator, so only these can be compared
SCALAR_COMPARABLE = DETERMINISTIC + ("reactive",)


@settings(max_examples=140, deadline=None)
@given(
    name=st.sampled_from(sorted(STRATEGY_PARAMS)),
    shards=st.sampled_from((1, 8)),
    rounds=st.lists(
        st.tuples(
            # a negative step is a stale ``now``: every key clamps forward
            st.floats(min_value=-1.5, max_value=2.5, allow_nan=False),
            st.lists(
                st.tuples(st.integers(0, 39), st.booleans()),
                min_size=1,
                max_size=60,
            ),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_packed_records_match_the_object_api_and_the_scalar_path(name, shards, rounds):
    """``try_acquire_frames`` ≡ ``encode_decisions_binary(try_acquire_many)``
    on a same-seed twin, for every registered strategy — capacity-0
    ``proactive`` takes the token-less slot, the ``reactive`` reference
    overdraws, ``randomized`` flips the coin — and ≡ n scalar
    ``try_acquire`` calls where the strategy is deterministic. Batches
    repeat keys, mix per-request flags, and overflow a 16-key table, so
    accounts are evicted and reborn mid-batch."""

    def twin():
        return TokenAccountLimiter(
            name,
            period=PERIOD,
            clock=ManualClock(),
            seed=7,
            shards=shards,
            max_keys=16,
            **STRATEGY_PARAMS[name],
        )

    packed, objects = twin(), twin()
    scalar = twin() if name in SCALAR_COMPARABLE else None
    now = 10.0
    for step, batch in rounds:
        now += step
        keys = [f"key-{index}" for index, _ in batch]
        flags = [useful for _, useful in batch]
        frames = packed.try_acquire_frames(keys, flags, now=now)
        assert isinstance(frames, bytearray)
        decisions = objects.try_acquire_many(keys, flags, now=now)
        assert [d.key for d in decisions] == keys
        assert bytes(frames) == wire.encode_decisions_binary(decisions)
        if scalar is not None:
            singles = [scalar.try_acquire(k, u, now=now) for k, u in zip(keys, flags)]
            assert bytes(frames) == wire.encode_decisions_binary(singles)
    for other in filter(None, (objects, scalar)):
        assert (packed.admitted, packed.rejected) == (other.admitted, other.rejected)
        assert len(packed) == len(other)
        for index in range(40):
            assert packed.balance(f"key-{index}") == other.balance(f"key-{index}")
        # the whole account, not just its balance, and the LRU order
        assert account_states(packed) == account_states(other)
    assert packed.admitted + packed.rejected == sum(len(b) for _, b in rounds)


def account_states(limiter):
    """Per shard, in LRU order: every key's tick and token bookkeeping."""
    return [
        [
            (key, s.ticks_granted, s.account.granted, s.account.spent, s.anchor)
            for key, s in shard.entries.items()
        ]
        for shard in limiter._table.shards
    ]


# ----------------------------------------------------------------------
# stale-now clamp (regression: backwards timestamps must be harmless)
# ----------------------------------------------------------------------
def test_stale_now_cannot_corrupt_retry_hints():
    """A `now` earlier than the key's last decision clamps forward.

    Before the clamp, a stale timestamp made ``retry_after`` balloon
    (the anchor is already past the stale now), telling well-behaved
    clients to back off for many periods they did not owe.
    """
    clock = ManualClock()
    limiter = make_limiter("simple", clock)  # C = 5
    for _ in range(5):
        assert limiter.try_acquire("k", now=10.0).admitted
    stale = limiter.try_acquire("k", now=3.0)  # 7 seconds in the past
    assert not stale.admitted
    assert stale.retry_after is not None and stale.retry_after <= PERIOD


def test_stale_now_cannot_mint_tokens_or_rearm_the_slot():
    clock = ManualClock()
    limiter = make_limiter("proactive", clock)  # capacity 0: slot-paced
    assert limiter.try_acquire("k", now=5.0).admitted  # slot taken at 5.0
    # time jumps backwards: the slot must NOT re-arm, and ticks must
    # not re-accrue from the stale anchor
    for bogus in (4.0, 1.0, 4.9):
        assert not limiter.try_acquire("k", now=bogus).admitted
    assert limiter.try_acquire("k", now=5.0 + PERIOD).admitted


def test_stale_now_clamps_in_batches_too():
    clock = ManualClock()
    limiter = make_limiter("simple", clock)
    limiter.try_acquire_many(["k"] * 5, now=10.0)  # drain the account
    (stale,) = limiter.try_acquire_many(["k"], now=2.0)
    assert not stale.admitted
    assert stale.retry_after is not None and stale.retry_after <= PERIOD
    # a batch at a *fresh* now still accrues normally afterwards
    (fresh,) = limiter.try_acquire_many(["k"], now=10.0 + PERIOD)
    assert fresh.admitted


# ----------------------------------------------------------------------
# try_acquire_run: the cluster's closed-form bulk seam
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["simple", "generalized"])
@pytest.mark.parametrize("useful", [True, False])
def test_run_matches_sequential_acquires(name, useful):
    """For deterministic strategies the closed form must be bit-for-bit
    the same as n sequential ``try_acquire`` calls: same admit count,
    same observed balances, same counters, same retry hint."""
    clock_a, clock_b = ManualClock(), ManualClock()
    run_limiter = make_limiter(name, clock_a)
    ref_limiter = make_limiter(name, clock_b)
    for step, count in enumerate([1, 3, 7, 2, 11, 4]):
        now = float(step) * 2.5
        reference = [
            ref_limiter.try_acquire("k", useful=useful, now=now)
            for _ in range(count)
        ]
        result = run_limiter.try_acquire_run("k", count, useful=useful, now=now)
        assert result is not None, "closed form must apply to " + name
        admits, rejects, balance, reason, retry = result
        assert admits == sum(d.admitted for d in reference)
        assert rejects == count - admits
        # admitted requests observed balance-1 .. balance-admits, and
        # every reject the leftover balance — same as the sequence
        expected_balances = [balance - i - 1 for i in range(admits)] + [
            balance - admits
        ] * rejects
        assert [d.balance for d in reference] == expected_balances
        if admits:
            assert {d.reason for d in reference if d.admitted} == {reason}
        if rejects:
            last = reference[-1]
            assert last.retry_after is not None
            assert retry == pytest.approx(last.retry_after)
    assert run_limiter.admitted == ref_limiter.admitted
    assert run_limiter.rejected == ref_limiter.rejected


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("simple", "generalized", "graded-generalized")),
    useful=st.booleans(),
    count=st.integers(1, 3 * 6),  # 1 … 3·C for the largest capacity here
    earlier=st.lists(
        st.tuples(
            st.floats(min_value=-1.0, max_value=2.5, allow_nan=False),
            st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=12),
        ),
        max_size=6,
    ),
    step=st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
)
def test_run_is_the_aggregate_of_the_batch(name, useful, count, earlier, step):
    """Batch ≡ run: ``try_acquire_run(key, n)`` is ``try_acquire_frames([key]
    * n)`` added up — admits, rejects, the pre-spend balance, reason and
    retry hint, and counters and ``balance()`` afterwards — on a
    same-seed twin, after an arbitrary earlier schedule."""
    run_limiter = make_limiter(name, ManualClock())
    batch_limiter = make_limiter(name, ManualClock())
    now = 5.0
    for advance, requests in earlier:
        now += advance
        keys = [f"key-{index}" for index, _ in requests]
        flags = [flag for _, flag in requests]
        for limiter in (run_limiter, batch_limiter):
            limiter.try_acquire_frames(keys, flags, now=now)
    now += step
    result = run_limiter.try_acquire_run("key-0", count, useful, now=now)
    assert result is not None
    admits, rejects, balance, reason, retry = result
    frames = batch_limiter.try_acquire_frames(["key-0"] * count, useful, now=now)
    records = [
        wire.DECISION_STRUCT.unpack_from(frames, i * wire.DECISION_FRAME_SIZE)
        for i in range(count)
    ]
    admitted = [record for record in records if record[2]]
    rejected = [record for record in records if not record[2]]
    assert (admits, rejects) == (len(admitted), len(rejected))
    assert records == admitted + rejected  # an admit prefix, then rejections
    # the records carry post-decision balances: the first one plus its spend
    assert balance == records[0][4] + (1 if admitted else 0)
    assert [record[4] for record in records] == [
        balance - i - 1 for i in range(admits)
    ] + [balance - admits] * rejects
    assert {wire.REASON_NAMES[record[3]] for record in admitted} <= {reason}
    if not admits:
        assert reason == "exhausted"
    if rejects:
        assert retry == records[-1][5]
    for limiter in (run_limiter, batch_limiter):
        assert limiter.admitted + limiter.rejected == (
            sum(len(requests) for _, requests in earlier) + count
        )
    assert (run_limiter.admitted, run_limiter.rejected) == (
        batch_limiter.admitted,
        batch_limiter.rejected,
    )
    assert run_limiter.balance("key-0") == batch_limiter.balance("key-0")
    assert account_states(run_limiter) == account_states(batch_limiter)


def test_run_declines_when_the_closed_form_cannot_apply():
    clock = ManualClock()
    random_limiter = make_limiter("randomized", clock)
    assert random_limiter.try_acquire_run("k", 4) is None
    overdraft_limiter = make_limiter("reactive", clock)
    assert overdraft_limiter.try_acquire_run("k", 4) is None
    slot_limiter = make_limiter("proactive", clock)  # capacity 0
    assert slot_limiter.try_acquire_run("k", 4) is None
    deterministic = make_limiter("generalized", clock)
    # graded usefulness is per-request state the run cannot carry
    assert deterministic.try_acquire_run("k", 4, useful=0.5) is None
    with pytest.raises(ValueError):
        deterministic.try_acquire_run("k", 0)


def test_run_decline_leaves_state_reusable_by_the_fallback():
    """A ``None`` return must not have mutated anything: the fallback
    ``try_acquire_many`` at the same ``now`` then behaves exactly as if
    the run was never attempted."""
    clock_a, clock_b = ManualClock(), ManualClock()
    probed = make_limiter("randomized", clock_a)
    control = make_limiter("randomized", clock_b)
    assert probed.try_acquire_run("k", 3, now=5.0) is None
    after_probe = probed.try_acquire_many(["k"] * 3, now=5.0)
    clean = control.try_acquire_many(["k"] * 3, now=5.0)
    assert [(d.admitted, d.balance) for d in after_probe] == [
        (d.admitted, d.balance) for d in clean
    ]
    assert probed.admitted == control.admitted
    assert probed.rejected == control.rejected


def test_run_that_mixes_admit_reasons_is_taken_back():
    """A custom deterministic strategy whose walk admits proactively at a
    full account and reactively below it: the run declines *after* the
    walk, so the spend and the counters must be undone for the fallback."""
    from repro.core.strategies import Strategy

    class FullThenReactive(Strategy):
        name = "full-then-reactive"
        token_capacity = 3

        def proactive(self, balance):
            return 1.0 if balance >= 3 else 0.0

        def reactive(self, balance, useful):
            return 1.0 if 0 < balance < 3 else 0.0

    def twin():
        return TokenAccountLimiter(
            FullThenReactive(), period=PERIOD, clock=ManualClock(), seed=7, shards=1
        )

    probed, control = twin(), twin()
    assert probed.try_acquire_run("k", 1, now=5.0) == (1, 0, 3, "proactive", 0.0)
    control.try_acquire_many(["k"], now=5.0)
    # a tick refills it to 3: proactive there, reactive at 2 and 1
    assert probed.try_acquire_run("k", 5, now=6.0) is None
    assert (probed.admitted, probed.rejected) == (control.admitted, control.rejected)
    assert probed.balance("k") == 3  # the tick stays credited, the spend does not
    after_probe = probed.try_acquire_many(["k"] * 5, now=6.0)
    clean = control.try_acquire_many(["k"] * 5, now=6.0)
    assert [d.reason for d in clean] == ["proactive", "reactive", "reactive"] + [
        "exhausted"
    ] * 2
    assert [(d.admitted, d.reason, d.balance, d.retry_after) for d in after_probe] == [
        (d.admitted, d.reason, d.balance, d.retry_after) for d in clean
    ]
    assert account_states(probed) == account_states(control)


def test_run_accrues_ticks_like_the_scalar_path():
    clock_a, clock_b = ManualClock(), ManualClock()
    run_limiter = make_limiter("simple", clock_a)  # C = 5
    ref_limiter = make_limiter("simple", clock_b)
    # drain, then let 3 periods accrue before the next run
    assert run_limiter.try_acquire_run("k", 8, now=1.0)[0] == 5
    [ref_limiter.try_acquire("k", now=1.0) for _ in range(8)]
    later = 1.0 + 3 * PERIOD
    admits, rejects, balance, _, _ = run_limiter.try_acquire_run(
        "k", 8, now=later
    )
    reference = [ref_limiter.try_acquire("k", now=later) for _ in range(8)]
    assert admits == sum(d.admitted for d in reference) == 3
    assert balance == 3 and rejects == 5
