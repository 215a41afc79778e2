"""The token account framework — the paper's core contribution (§3).

* :mod:`repro.core.account` — the per-node token account with its
  non-negativity and capacity invariants.
* :mod:`repro.core.rounding` — the probabilistic rounding used by
  Algorithm 4 (``randRound``).
* :mod:`repro.core.strategies` — the proactive/reactive function pairs:
  purely proactive, simple, generalized, randomized token account, plus
  the unbounded purely reactive reference.
* :mod:`repro.core.api` — the application-facing API
  (``createMessage`` / ``updateState``).
* :mod:`repro.core.protocol` — Algorithm 4 itself, binding a strategy and
  an application to a simulated node.
* :mod:`repro.core.ratelimit` — auditing of the §3.4 burst bound.
* :mod:`repro.core.meanfield` — the §4.3 mean-field model of the average
  token balance.
* :mod:`repro.core.discrete_balance` — exact Markov-chain refinement of
  the mean-field for small token budgets.
* :mod:`repro.core.grading` — graded usefulness (the paper's stated
  future work).
"""

from .. import _lazy_exports

#: each re-exported name, under the module that defines it (imported on
#: the name's first use, :func:`repro._lazy_exports`)
_EXPORTS = {
    "repro.core.account": ("TokenAccount",),
    "repro.core.api": ("Application",),
    "repro.core.discrete_balance": (
        "stationary_distribution",
        "stationary_mean_balance",
    ),
    "repro.core.grading": (
        "GradedGeneralizedTokenAccount",
        "GradedRandomizedTokenAccount",
        "as_grade",
        "saturating_grade",
    ),
    "repro.core.meanfield": (
        "MeanFieldModel",
        "MeanFieldTrajectory",
        "randomized_equilibrium",
        "solve_equilibrium",
    ),
    "repro.core.protocol": ("TokenAccountNode",),
    "repro.core.ratelimit": ("RateLimitAuditor", "burst_bound"),
    "repro.core.rounding": ("rand_round",),
    "repro.core.strategies": (
        "GeneralizedTokenAccount",
        "ProactiveStrategy",
        "PureReactiveStrategy",
        "RandomizedTokenAccount",
        "SimpleTokenAccount",
        "Strategy",
        "make_strategy",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Application",
    "GradedGeneralizedTokenAccount",
    "GradedRandomizedTokenAccount",
    "as_grade",
    "saturating_grade",
    "GeneralizedTokenAccount",
    "MeanFieldModel",
    "MeanFieldTrajectory",
    "ProactiveStrategy",
    "PureReactiveStrategy",
    "RandomizedTokenAccount",
    "RateLimitAuditor",
    "SimpleTokenAccount",
    "Strategy",
    "TokenAccount",
    "TokenAccountNode",
    "burst_bound",
    "make_strategy",
    "rand_round",
    "randomized_equilibrium",
    "solve_equilibrium",
    "stationary_distribution",
    "stationary_mean_balance",
]
