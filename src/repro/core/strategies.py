"""Token account strategies: the proactive/reactive function pairs (§3).

A strategy is a pair of functions over the account balance ``a``:

* ``proactive(a)`` — probability of sending a proactive message this
  round; must be monotone non-decreasing in ``a``.
* ``reactive(a, u)`` — (possibly fractional) number of messages to send
  in reaction to an incoming message of usefulness ``u``; must be
  monotone non-decreasing in both ``a`` and ``u`` and must never exceed
  ``a`` (no overspending).

Implemented strategies
----------------------
=================  ==========================================  =================================================
name               ``proactive(a)``                            ``reactive(a, u)``
=================  ==========================================  =================================================
``proactive``      1                                           0
``simple``         1 if ``a >= C`` else 0                      1 if ``a > 0`` else 0
``generalized``    1 if ``a >= C`` else 0                      ``⌊(A−1+a)/A⌋`` if u else ``⌊(A−1+a)/(2A)⌋``
``randomized``     0 / linear on ``[A−1, C]`` / 1              ``a/A`` if u else 0   (randomized rounding)
``reactive``       0                                           ``k`` (or ``u·k``); unbounded reference only
=================  ==========================================  =================================================

``C`` is the **token capacity**: the smallest balance at which the
proactive function returns 1 (§3.4). It bounds the largest possible
burst. ``A`` controls the rate of token spending — at balance ``a ≈ A``
the reactive functions return about one message.

Each strategy also exposes ``continuous_proactive`` / ``continuous_reactive``
(the same formulas without integer rounding) for the mean-field model of
§4.3, which treats the balance as a real-valued mean.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from repro.registry import ParamSpec, strategies as strategy_registry

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.kernel import DecisionKernel

#: shared (A, C) parameter schema of the token account strategies
_AC_PARAMS = (
    ParamSpec("spend_rate", "int", required=True, help="A — token spending rate"),
    ParamSpec("capacity", "int", required=True, help="C — token capacity (C >= A)"),
)


class Strategy(ABC):
    """A proactive/reactive function pair with a declared token capacity."""

    #: short registry name used in experiment configurations
    name: str = "abstract"

    #: smallest balance with ``proactive(a) == 1``; ``None`` if unbounded
    token_capacity: Optional[int] = None

    #: whether the account may go negative (purely reactive reference only)
    requires_overdraft: bool = False

    #: whether the runner must seed one initial message per node — the
    #: purely reactive reference never initiates, so without a kick its
    #: cascades would not exist at all
    bootstrap_kick: bool = False

    @abstractmethod
    def proactive(self, balance: int) -> float:
        """Probability of sending a proactive message at ``balance``."""

    @abstractmethod
    def reactive(self, balance: int, useful: bool) -> float:
        """Number of reactive messages (possibly fractional) to send."""

    # ------------------------------------------------------------------
    # Continuous relaxations for the §4.3 mean-field model. The default
    # evaluates the discrete formula on the real-valued balance, which is
    # exact for strategies whose formulas contain no integer rounding.
    # ------------------------------------------------------------------
    def continuous_proactive(self, balance: float) -> float:
        return self.proactive(balance)  # type: ignore[arg-type]

    def continuous_reactive(self, balance: float, useful: bool) -> float:
        return self.reactive(balance, useful)  # type: ignore[arg-type]

    @property
    def decision_kernel(self) -> "DecisionKernel":
        """This strategy's cached Algorithm-4 decision kernel.

        One :class:`~repro.core.kernel.DecisionKernel` per strategy
        instance, built lazily: both the serving layer (scalar and
        batched admission) and the vectorized simulation backend run
        their decisions through this single object.
        """
        kernel = getattr(self, "_decision_kernel", None)
        if kernel is None:
            from repro.core.kernel import DecisionKernel

            kernel = DecisionKernel(self)
            self._decision_kernel = kernel
        return kernel

    def describe(self) -> str:
        """Human-readable label used in experiment reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.describe()})"


@strategy_registry.register(
    "proactive",
    summary="purely proactive baseline: send every round, never react (§3.1)",
)
class ProactiveStrategy(Strategy):
    """The purely proactive baseline: send every round, never react.

    ``PROACTIVE(a) ≡ 1`` and ``REACTIVE(a, u) ≡ 0`` (§3.1). Equivalent to
    :class:`SimpleTokenAccount` with ``C = 0``, which is exactly how the
    paper's experiments instantiate the baseline.
    """

    name = "proactive"
    token_capacity = 0

    def proactive(self, balance: int) -> float:
        return 1.0

    def reactive(self, balance: int, useful: bool) -> float:
        return 0.0


@strategy_registry.register(
    "simple",
    summary="simple token account: proactive when full, react one-for-one (§3.3.1)",
    params=(
        ParamSpec("capacity", "int", required=True, help="C — token capacity"),
    ),
)
class SimpleTokenAccount(Strategy):
    """The simple token account (§3.3.1) — the token-bucket-like baseline.

    Sends proactively only when the account is full (``a >= C``) and
    reacts with exactly one message whenever a token is available. The
    proactive-when-full behaviour is what distinguishes it from a classic
    token bucket: when few messages circulate (e.g. after failures) the
    account fills and the node falls back to proactive gossiping, which
    keeps the system alive.

    Parameters
    ----------
    capacity:
        The token capacity ``C >= 0``. ``C = 0`` yields the purely
        proactive baseline.
    """

    name = "simple"

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.token_capacity = capacity

    def proactive(self, balance: int) -> float:
        return 1.0 if balance >= self.capacity else 0.0

    def reactive(self, balance: int, useful: bool) -> float:
        return 1.0 if balance > 0 else 0.0

    def continuous_reactive(self, balance: float, useful: bool) -> float:
        return 1.0 if balance > 0 else 0.0

    def describe(self) -> str:
        return f"simple(C={self.capacity})"


@strategy_registry.register(
    "generalized",
    summary="generalized token account: floor-scaled reactive spending (§3.3.2)",
    params=_AC_PARAMS,
)
class GeneralizedTokenAccount(Strategy):
    """The generalized token account (§3.3.2).

    Reacts more aggressively when the balance is high, and responds to a
    *useful* message with twice the budget of a useless one::

        REACTIVE(a, u) = ⌊(A − 1 + a) / A⌋       if u
                         ⌊(A − 1 + a) / (2A)⌋    otherwise

    With ``A = 1`` a useful message triggers spending the whole account;
    with ``A = C`` the reactive part degenerates to the simple strategy's.
    Because of the floor, a useless message consumes nothing when tokens
    are scarce (``a <= A``) — "when the tokens are scarce, we do not waste
    them for reacting to messages that are not useful".

    Parameters
    ----------
    spend_rate:
        ``A >= 1`` — larger values spend the account more slowly.
    capacity:
        ``C >= A`` — the token capacity (values below ``A`` would make
        the proactive function fire before the reactive function can
        respond with even one message, which the paper excludes).
    """

    name = "generalized"

    def __init__(self, spend_rate: int, capacity: int):
        if spend_rate < 1:
            raise ValueError(f"A must be a positive integer, got {spend_rate}")
        if capacity < spend_rate:
            raise ValueError(
                f"C must be >= A (got A={spend_rate}, C={capacity}); "
                "A = C already reduces to the simple reactive function"
            )
        self.spend_rate = spend_rate
        self.capacity = capacity
        self.token_capacity = capacity

    def proactive(self, balance: int) -> float:
        return 1.0 if balance >= self.capacity else 0.0

    def reactive(self, balance: int, useful: bool) -> float:
        a = self.spend_rate
        if useful:
            return float((a - 1 + balance) // a)
        return float((a - 1 + balance) // (2 * a))

    def continuous_reactive(self, balance: float, useful: bool) -> float:
        a = self.spend_rate
        if useful:
            return max(0.0, (a - 1 + balance) / a)
        return max(0.0, (a - 1 + balance) / (2 * a))

    def describe(self) -> str:
        return f"generalized(A={self.spend_rate}, C={self.capacity})"


@strategy_registry.register(
    "randomized",
    summary="randomized token account: linear proactive ramp, a/A reactive (§3.3.3)",
    params=_AC_PARAMS,
)
class RandomizedTokenAccount(Strategy):
    """The randomized token account (§3.3.3).

    Smooths the proactive behaviour: below ``A − 1`` tokens the node is
    purely reactive (it could not even answer a useful message with one
    full message, so it hoards); between ``A − 1`` and ``C`` the proactive
    probability rises linearly to 1; at ``C`` and above it always sends::

        PROACTIVE(a) = 0                          if a < A − 1
                       (a − A + 1) / (C − A + 1)  if A − 1 <= a <= C
                       1                          otherwise

        REACTIVE(a, u) = a / A  if u else 0

    The reactive value is *not* floored — Algorithm 4's randomized
    rounding turns it into an unbiased integer sample, which is what lets
    the mean-field equilibrium ``a = A·C/(C+1)`` (§4.3) hold exactly.

    Parameters
    ----------
    spend_rate:
        ``A >= 1`` — reactive spending uses roughly a ``1/A`` fraction of
        the balance per useful message.
    capacity:
        ``C >= A`` — the token capacity.
    """

    name = "randomized"

    def __init__(self, spend_rate: int, capacity: int):
        if spend_rate < 1:
            raise ValueError(f"A must be a positive integer, got {spend_rate}")
        if capacity < spend_rate:
            raise ValueError(f"C must be >= A (got A={spend_rate}, C={capacity})")
        self.spend_rate = spend_rate
        self.capacity = capacity
        self.token_capacity = capacity

    def proactive(self, balance: int) -> float:
        a_param = self.spend_rate
        if balance < a_param - 1:
            return 0.0
        if balance <= self.capacity:
            return (balance - a_param + 1) / (self.capacity - a_param + 1)
        return 1.0

    def reactive(self, balance: int, useful: bool) -> float:
        if not useful:
            return 0.0
        return balance / self.spend_rate

    def describe(self) -> str:
        return f"randomized(A={self.spend_rate}, C={self.capacity})"


@strategy_registry.register(
    "reactive",
    summary="purely reactive flooding reference — unbounded, tests/reference only",
    params=(
        ParamSpec("fanout", "int", default=1, help="k — messages per reaction"),
        ParamSpec(
            "useful_only",
            "bool",
            default=True,
            help="react only to useful messages (the u*k variant)",
        ),
    ),
)
class PureReactiveStrategy(Strategy):
    """The purely reactive reference ("flooding") — not a viable deployment.

    ``PROACTIVE(a) ≡ 0`` and ``REACTIVE(a, u) ≡ k`` (or ``u·k``), with the
    non-negativity of the balance relaxed (§3.1). The paper excludes it
    from the experimental comparison because "without any rate control,
    our applications would generate a continuous burst"; we keep it as the
    reference that defines the maximum possible speed (``n*(t)`` in
    §4.1.1) and for tests.

    Parameters
    ----------
    fanout:
        ``k >= 1`` messages per reaction.
    useful_only:
        If ``True``, react only to useful messages (the ``u·k`` variant).
    """

    name = "reactive"
    token_capacity = None
    requires_overdraft = True
    bootstrap_kick = True

    def __init__(self, fanout: int = 1, useful_only: bool = True):
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        self.fanout = fanout
        self.useful_only = useful_only

    def proactive(self, balance: int) -> float:
        return 0.0

    def reactive(self, balance: int, useful: bool) -> float:
        if self.useful_only and not useful:
            return 0.0
        return float(self.fanout)

    def describe(self) -> str:
        suffix = "u" if self.useful_only else ""
        return f"reactive(k={self.fanout}{suffix})"


def make_strategy(
    name: str,
    spend_rate: Optional[int] = None,
    capacity: Optional[int] = None,
    fanout: int = 1,
    useful_only: bool = True,
) -> Strategy:
    """Build a strategy from its registry name and parameters.

    The flat legacy entry point used by the experiment harness:
    ``make_strategy("randomized", spend_rate=10, capacity=20)``. It
    forwards to the :mod:`repro.registry` strategy registry, passing only
    the parameters the named strategy declares (so the unified signature
    keeps working for strategies that take no ``fanout``, etc.).

    Parameters mirror the paper's: ``spend_rate`` is ``A``, ``capacity``
    is ``C``.
    """
    registration = strategy_registry.get(name)
    params = registration.filter_params(
        {
            "spend_rate": spend_rate,
            "capacity": capacity,
            "fanout": fanout,
            "useful_only": useful_only,
        }
    )
    return strategy_registry.create(name, **params)


def validate_strategy(strategy: Strategy, max_balance: int = 200) -> None:
    """Check the §3.1 contract over balances ``0..max_balance``.

    Raises ``AssertionError`` on the first violation. Used by tests and
    available to users implementing custom strategies.
    """
    previous_proactive = -1.0
    previous_useful = -1.0
    previous_useless = -1.0
    for balance in range(max_balance + 1):
        p = strategy.proactive(balance)
        assert 0.0 <= p <= 1.0, f"proactive({balance}) = {p} not a probability"
        assert p >= previous_proactive, (
            f"proactive not monotone at balance {balance}: {p} < {previous_proactive}"
        )
        previous_proactive = p
        r_useful = strategy.reactive(balance, True)
        r_useless = strategy.reactive(balance, False)
        assert r_useful >= 0 and r_useless >= 0, "reactive returned a negative count"
        if not strategy.requires_overdraft:
            assert r_useful <= balance and r_useless <= balance, (
                f"reactive overspends at balance {balance}: "
                f"useful={r_useful}, useless={r_useless}"
            )
        assert r_useful >= r_useless, (
            f"reactive not monotone in usefulness at balance {balance}"
        )
        assert r_useful >= previous_useful and r_useless >= previous_useless, (
            f"reactive not monotone in balance at {balance}"
        )
        previous_useful, previous_useless = r_useful, r_useless
    if strategy.token_capacity is not None:
        capacity = strategy.token_capacity
        assert strategy.proactive(capacity) == 1.0, (
            f"proactive({capacity}) != 1 despite declared capacity {capacity}"
        )
        if capacity > 0:
            assert strategy.proactive(capacity - 1) < 1.0, (
                f"declared capacity {capacity} is not minimal"
            )
