"""The shared Algorithm-4 decision kernel (scalar + columnar).

One admission decision is a pure function of ``(balance, usefulness,
randomness)``: randRound the strategy's reactive budget — at least one
message means *react*; otherwise flip the proactive coin. Both the
serving layer (:class:`repro.serve.TokenAccountLimiter`) and the
vectorized simulation backend (:mod:`repro.backends.vectorized`) need
exactly this function, the former one key at a time on the request
path, the latter over whole node populations per slot. This module is
the single implementation both import, built on the strategy-LUT +
randRound machinery the vectorized backend introduced:

* :func:`strategy_tables` tabulates ``PROACTIVE(a)`` and
  ``REACTIVE(a, u)`` over the balance range once per strategy;
* :class:`DecisionKernel` fuses the reactive tables into integer-part /
  randRound-fraction pairs and answers either one decision
  (:meth:`~DecisionKernel.decide_one`) or a whole batch
  (:meth:`~DecisionKernel.decide_many`).

The RNG contract (what makes scalar ≡ batch testable)
-----------------------------------------------------
Every decision consumes **exactly two** uniforms, in a fixed order: the
randRound draw, then the proactive coin — even when a branch's outcome
does not need its draw (a zero reactive fraction, a 0/1 proactive
probability). ``decide_many`` draws ``rng.random((n, 2))``; NumPy fills
that row-major, so feeding the same seeded generator through n
``decide_one`` calls produces bit-identical verdicts. The equivalence
tests assert exactly this, strategy by strategy.

``reaction_counts`` intentionally does *not* follow the two-draw
contract: it reproduces the vectorized backend's historical draw
pattern (one uniform per message, no proactive coin), keeping existing
simulation runs bit-identical seed-for-seed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.strategies import Strategy

#: lookup-table span for strategies without a finite capacity (their
#: balance is unbounded; the built-in overdraft reference is
#: balance-independent, so clipping the index is exact)
UNBOUNDED_LUT_SPAN = 64

#: verdict codes ``decide_many`` emits (int8-friendly)
VERDICT_SILENT = 0
VERDICT_REACTIVE = 1
VERDICT_PROACTIVE = 2

#: ``VERDICT_REASONS[code]`` is the scalar hook's string verdict
VERDICT_REASONS: Tuple[Optional[str], ...] = (None, "reactive", "proactive")


def strategy_tables(
    strategy: "Strategy",
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables ``proactive[a]``, ``reactive[a, u]`` over balances.

    Returns ``(max_balance, proactive, reactive_useful, reactive_useless)``
    with tables indexed by ``clip(balance, 0, max_balance)``. For
    capacity-bounded strategies the balance lives in ``[0, C]`` by
    construction, so the tables are exact; for overdraft strategies the
    clipped lookup is exact because their functions ignore the balance.
    """
    capacity = strategy.token_capacity
    max_balance = capacity if capacity is not None else UNBOUNDED_LUT_SPAN
    balances = range(max_balance + 1)
    proactive = np.array([strategy.proactive(a) for a in balances], dtype=np.float64)
    useful = np.array([strategy.reactive(a, True) for a in balances], dtype=np.float64)
    useless = np.array(
        [strategy.reactive(a, False) for a in balances], dtype=np.float64
    )
    return max_balance, proactive, useful, useless


class DecisionKernel:
    """Tabulated Algorithm-4 decisions for one strategy, scalar or batch.

    Built once per strategy (cached on
    :attr:`repro.core.strategies.Strategy.decision_kernel`). The fused
    reactive tables are keyed by ``clip(balance) + useful·lut_span`` so
    a batch decision costs two gathers and two uniform draws per entry.
    """

    __slots__ = (
        "strategy",
        "lut_max",
        "lut_span",
        "pro_lut",
        "react_int_lut",
        "react_frac_lut",
        "can_react",
        "clip_index",
        "deterministic",
        "_has_fraction",
        "_pro_list",
        "_int_list",
        "_frac_list",
    )

    def __init__(self, strategy: "Strategy"):
        self.strategy = strategy
        self.lut_max, self.pro_lut, useful, useless = strategy_tables(strategy)
        # Fused reactive tables for the hot path: one table pair over
        # the key ``balance + useful·(C+1)`` holding the integer part
        # and the randRound fraction.
        fused = np.concatenate([useless, useful])
        self.react_int_lut = np.floor(fused).astype(np.int64)
        self.react_frac_lut = fused - np.floor(fused)
        self._has_fraction = bool(self.react_frac_lut.any())
        self.lut_span = self.lut_max + 1
        #: strategies that never react (the purely proactive baseline)
        #: let callers skip the reaction machinery wholesale
        self.can_react = bool(fused.max() > 0.0)
        #: whether balances can leave ``[0, lut_max]`` (overdraft or no
        #: declared capacity) and the LUT index must clip
        self.clip_index = (
            strategy.requires_overdraft or strategy.token_capacity is None
        )
        #: whether a decision over the tables (bool usefulness, balance in
        #: ``[0, lut_max]``) is a pure function of ``(balance, useful)``:
        #: no randRound fraction anywhere and every proactive probability
        #: 0 or 1, so neither uniform of the RNG contract is ever read
        self.deterministic = bool(
            not self._has_fraction and np.isin(self.pro_lut, (0.0, 1.0)).all()
        )
        # Plain-list mirrors: scalar lookups on python ints are ~3x
        # faster than indexing 0-d numpy scalars out of the arrays.
        self._pro_list = self.pro_lut.tolist()
        self._int_list = self.react_int_lut.tolist()
        self._frac_list = self.react_frac_lut.tolist()

    # ------------------------------------------------------------------
    def lut_index(self, balances: np.ndarray) -> np.ndarray:
        """Balances as LUT indices (clipped only when they can stray)."""
        if not self.clip_index:
            # Guarded balances live in [0, C] by construction (grants
            # clamp, withdrawals never overdraw): index directly.
            return balances
        return np.clip(balances, 0, self.lut_max)

    # ------------------------------------------------------------------
    def decide_one(self, balance: int, useful, rng) -> Optional[str]:
        """One Algorithm-4 decision; the batch-of-one scalar hook.

        ``rng`` needs only a ``random()`` method (``random.Random`` and
        ``numpy.random.Generator`` both qualify). Always consumes two
        uniforms (see the module docstring's RNG contract). Non-boolean
        usefulness grades and out-of-table balances fall back to the
        strategy's direct formulas, so graded and custom strategies get
        the exact same decision the LUT path encodes.
        """
        return self.decide_one_drawn(balance, useful, rng.random(), rng.random())

    def decide_one_drawn(
        self, balance: int, useful, u_round: float, u_coin: float
    ) -> Optional[str]:
        """:meth:`decide_one` with the two uniforms already drawn.

        The seam batch callers use to pre-draw one ``(n, 2)`` block and
        decide per key without touching the generator again.
        """
        if (useful is True or useful is False) and 0 <= balance <= self.lut_max:
            key = balance + self.lut_span if useful else balance
            count = self._int_list[key] + (u_round < self._frac_list[key])
            probability = self._pro_list[balance]
        else:
            desired = self.strategy.reactive(balance, useful)
            whole = math.floor(desired)
            count = whole + (u_round < desired - whole)
            probability = self.strategy.proactive(balance)
        if count >= 1:
            return "reactive"
        if probability >= 1.0 or (probability > 0.0 and u_coin < probability):
            return "proactive"
        return None

    def decide_many(
        self, balances: np.ndarray, useful, rng: np.random.Generator
    ) -> np.ndarray:
        """Columnar Algorithm 4: one int8 verdict code per balance.

        ``useful`` is a single bool applied to the whole batch or a
        boolean array aligned with ``balances``. Draws
        ``rng.random((n, 2))`` — bit-identical to n scalar
        :meth:`decide_one` calls on the same generator.
        """
        balances = np.asarray(balances)
        n = len(balances)
        draws = rng.random((n, 2))
        index = self.lut_index(balances)
        if useful is True:
            key = index + self.lut_span
        elif useful is False:
            key = index
        else:
            key = index + np.asarray(useful, dtype=np.int64) * self.lut_span
        counts = self.react_int_lut[key] + (draws[:, 0] < self.react_frac_lut[key])
        verdicts = np.where(counts >= 1, VERDICT_REACTIVE, VERDICT_SILENT).astype(
            np.int8
        )
        probability = self.pro_lut[index]
        proactive = (counts < 1) & (
            (probability >= 1.0) | ((probability > 0.0) & (draws[:, 1] < probability))
        )
        verdicts[proactive] = VERDICT_PROACTIVE
        return verdicts

    # ------------------------------------------------------------------
    def reaction_counts(
        self, balances: np.ndarray, useful: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized ``randRound(REACTIVE(a, u))`` for one arrival batch.

        The vectorized backend's reactive half: one uniform per entry
        (its historical draw pattern — deliberately *not* the two-draw
        decision contract, so existing simulation seeds stay
        bit-identical). Counts are not yet clamped to the balance; the
        caller owns the no-overspend clamp. Where every fraction is zero
        (``simple``, ``generalized``) the block is still drawn but never
        read.
        """
        key = self.lut_index(balances) + useful * self.lut_span
        draws = rng.random(len(key))
        if not self._has_fraction:
            return self.react_int_lut.take(key)
        return self.react_int_lut[key] + (draws < self.react_frac_lut[key])
