"""The shared decision kernel: scalar ≡ batch, one implementation everywhere.

The refactor's contract is that `repro.serve` and the vectorized
simulation backend import the *same* Algorithm-4 kernel, and that the
columnar `decide_many` is bit-identical to a sequence of scalar
`decide_one` calls on the same generator (the two-uniforms-per-decision
RNG contract). These tests pin both, strategy by strategy, across every
registered strategy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import (
    VERDICT_REASONS,
    DecisionKernel,
    strategy_tables,
)
from repro.registry import strategies as strategy_registry
from repro.serve import TokenAccountLimiter

#: one representative parameterization per registered strategy
STRATEGY_PARAMS = {
    "proactive": {},
    "simple": {"capacity": 5},
    "generalized": {"spend_rate": 3, "capacity": 6},
    "randomized": {"spend_rate": 3, "capacity": 6},
    "graded-generalized": {"spend_rate": 3, "capacity": 6},
    "graded-randomized": {"spend_rate": 3, "capacity": 6},
    "reactive": {},
}


def all_registered_strategies():
    names = strategy_registry.names()
    assert set(names) == set(STRATEGY_PARAMS), (
        "a strategy was (un)registered; update STRATEGY_PARAMS so the "
        "kernel equivalence suite keeps covering the registry"
    )
    return names


def make_strategy(name):
    return strategy_registry.create(name, **STRATEGY_PARAMS[name])


def balances_for(strategy, rng):
    capacity = strategy.token_capacity
    if capacity is None:
        # overdraft strategies roam: exercise negative and large balances
        return rng.integers(-20, 200, size=512)
    return rng.integers(0, capacity + 1, size=512)


# ----------------------------------------------------------------------
# scalar == batch, per strategy, shared RNG stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", all_registered_strategies())
@pytest.mark.parametrize("useful", (True, False))
def test_decide_many_matches_scalar_stream(name, useful):
    """One seeded generator, consumed batch-wise vs one-at-a-time."""
    strategy = make_strategy(name)
    kernel = strategy.decision_kernel
    balances = balances_for(strategy, np.random.default_rng(99))

    batch_rng = np.random.default_rng(4242)
    codes = kernel.decide_many(balances, useful, batch_rng)

    scalar_rng = np.random.default_rng(4242)
    scalar = [
        kernel.decide_one(int(balance), useful, scalar_rng)
        for balance in balances
    ]
    assert [VERDICT_REASONS[code] for code in codes.tolist()] == scalar


@pytest.mark.parametrize("name", all_registered_strategies())
def test_decide_many_mixed_usefulness_matches_scalar(name):
    strategy = make_strategy(name)
    kernel = strategy.decision_kernel
    rng = np.random.default_rng(7)
    balances = balances_for(strategy, rng)
    useful = rng.random(len(balances)) < 0.5

    codes = kernel.decide_many(balances, useful, np.random.default_rng(11))
    scalar_rng = np.random.default_rng(11)
    scalar = [
        kernel.decide_one(int(balance), bool(flag), scalar_rng)
        for balance, flag in zip(balances, useful)
    ]
    assert [VERDICT_REASONS[code] for code in codes.tolist()] == scalar


def test_two_uniforms_consumed_even_when_not_needed():
    """The stream contract: every decision advances the RNG by exactly 2."""
    strategy = make_strategy("simple")  # deterministic tables: no draw *needed*
    kernel = strategy.decision_kernel
    rng = np.random.default_rng(0)
    kernel.decide_one(3, True, rng)
    probe = np.random.default_rng(0)
    probe.random(2)
    assert rng.random() == probe.random()


def test_decide_one_falls_back_for_graded_usefulness():
    """Non-boolean grades bypass the LUT and use the strategy formulas."""
    strategy = make_strategy("graded-generalized")
    kernel = strategy.decision_kernel
    rng = np.random.default_rng(1)
    # grade 1.0 (a float, not True) must behave like useful=True
    verdicts_float = [
        kernel.decide_one(5, 1.0, np.random.default_rng(s)) for s in range(40)
    ]
    verdicts_bool = [
        kernel.decide_one(5, True, np.random.default_rng(s)) for s in range(40)
    ]
    assert verdicts_float == verdicts_bool
    assert kernel.decide_one(5, 0.5, rng) in (None, "reactive", "proactive")


def test_decide_one_drawn_is_decide_one():
    strategy = make_strategy("randomized")
    kernel = strategy.decision_kernel
    for seed in range(25):
        rng = np.random.default_rng(seed)
        probe = np.random.default_rng(seed)
        expected = kernel.decide_one(4, True, rng)
        assert (
            kernel.decide_one_drawn(4, True, probe.random(), probe.random())
            == expected
        )


# ----------------------------------------------------------------------
# one kernel instance shared across layers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", all_registered_strategies())
def test_strategy_caches_one_kernel_instance(name):
    strategy = make_strategy(name)
    assert strategy.decision_kernel is strategy.decision_kernel


def test_limiter_and_vectorized_backend_share_the_strategy_kernel():
    """The serving layer and the simulation backend import one kernel."""
    from repro.backends.vectorized import _PushGossipKernel
    from repro.scenarios import ComponentRef, ScenarioSpec

    strategy = make_strategy("generalized")
    limiter = TokenAccountLimiter(strategy, period=1.0, seed=1)
    assert limiter._kernel is strategy.decision_kernel

    spec = ScenarioSpec(
        app=ComponentRef("push-gossip"),
        strategy=ComponentRef.of("generalized", spend_rate=3, capacity=6),
        n=64,
        periods=5,
        backend="vectorized",
    )
    sim = _PushGossipKernel(spec)
    assert sim.kernel is sim.strategy.decision_kernel
    assert isinstance(sim.kernel, DecisionKernel)
    # and it is the very kernel class the limiter decides with
    assert type(limiter._kernel) is type(sim.kernel)


def test_strategy_tables_match_direct_formulas():
    strategy = make_strategy("generalized")
    max_balance, proactive, useful, useless = strategy_tables(strategy)
    assert max_balance == strategy.token_capacity
    for balance in range(max_balance + 1):
        assert proactive[balance] == strategy.proactive(balance)
        assert useful[balance] == strategy.reactive(balance, True)
        assert useless[balance] == strategy.reactive(balance, False)


def test_kernel_lut_index_clips_only_unbounded_strategies():
    bounded = make_strategy("simple").decision_kernel
    unbounded = make_strategy("reactive").decision_kernel
    assert not bounded.clip_index
    assert unbounded.clip_index
    assert unbounded.lut_index(np.array([-5, 1000])).max() <= unbounded.lut_max
    assert unbounded.lut_index(np.array([-5, 1000])).min() >= 0


#: which registered kernels never read a uniform over their tables
DETERMINISTIC = {
    "proactive": True,
    "simple": True,
    "generalized": True,
    "randomized": False,
    "graded-generalized": True,  # floors its graded budget; bools are the tables
    "graded-randomized": False,
    "reactive": True,  # k whole messages whatever the (unbounded) balance
}


@pytest.mark.parametrize("name", all_registered_strategies())
def test_kernel_says_whether_it_is_deterministic(name):
    """The attribute agrees with probing every table entry at the corners
    of the unit square: no verdict there depends on either uniform."""
    kernel = make_strategy(name).decision_kernel
    assert kernel.deterministic is DETERMINISTIC[name]
    corners = [(0.0, 0.0), (0.0, 1.0 - 2**-53), (1.0 - 2**-53, 0.0)]
    draw_free = all(
        len({kernel.decide_one_drawn(balance, useful, *draws) for draws in corners})
        == 1
        for balance in range(kernel.lut_max + 1)
        for useful in (True, False)
    )
    assert draw_free is kernel.deterministic


def test_kernel_is_importable_standalone():
    strategy = make_strategy("simple")
    kernel = DecisionKernel(strategy)
    rng = np.random.default_rng(3)
    assert kernel.decide_one(5, True, rng) == "reactive"


# ----------------------------------------------------------------------
# reaction_counts: the vectorized backend's one-uniform-per-entry draw
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pending_half", [False, True])
@pytest.mark.parametrize("name", all_registered_strategies())
def test_reaction_counts_is_the_lut_formula_on_one_uniform_block(name, pending_half):
    """Counts are ``int[key] + (u < frac[key])`` over one ``random(n)``
    block, and the generator ends where that block leaves it — also when
    an odd-length bounded ``integers`` call left PCG64 a pending 32-bit
    half, which a skipped draw replaced by ``bit_generator.advance``
    would clear."""
    kernel = make_strategy(name).decision_kernel
    setup = np.random.default_rng(11)
    for n in (0, 1, 7, 512):
        rng = np.random.default_rng(int(setup.integers(1 << 32)))
        if pending_half:
            rng.integers(0, 20, size=2 * n + 1)
            assert rng.bit_generator.state["has_uint32"]
        balances = balances_for(make_strategy(name), setup)[:n]
        useful = setup.random(n) < 0.5
        clone = np.random.Generator(np.random.PCG64())
        clone.bit_generator.state = rng.bit_generator.state

        counts = kernel.reaction_counts(balances, useful, rng)

        key = kernel.lut_index(balances) + useful * kernel.lut_span
        expected = kernel.react_int_lut[key] + (
            clone.random(n) < kernel.react_frac_lut[key]
        )
        np.testing.assert_array_equal(counts, expected)
        assert counts.dtype == expected.dtype
        assert rng.bit_generator.state == clone.bit_generator.state
