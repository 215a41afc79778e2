"""repro — Token Account Algorithms (Danner & Jelasity, ICDCS 2018).

A production-quality reproduction of *"Token Account Algorithms: The
Best of the Proactive and Reactive Worlds"*: a traffic-shaping service
for decentralized applications that spans the design space between
proactive (fixed-rate) and reactive (event-triggered) communication,
bounding bursts like a token bucket while approaching reactive-speed
convergence.

Quickstart::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        app="push-gossip",
        strategy="randomized", spend_rate=10, capacity=20,
        n=500, periods=100, seed=7,
    ))
    print(result.summary())

Package map:

* :mod:`repro.core` — the token account framework (strategies,
  Algorithm 4, burst-bound auditing, §4.3 mean-field model);
* :mod:`repro.sim` — deterministic discrete-event engine;
* :mod:`repro.overlay` — k-out and Watts–Strogatz overlays, peer
  sampling;
* :mod:`repro.churn` — availability traces and the synthetic
  STUNner-like smartphone trace;
* :mod:`repro.apps` — gossip learning, push gossip, chaotic power
  iteration;
* :mod:`repro.metrics` — the paper's performance metrics and collectors;
* :mod:`repro.experiments` — scenario assembly, figure harnesses,
  parameter sweeps, reporting;
* :mod:`repro.store` — content-addressed result store (memoized cells,
  resumable suites, offline ``repro report``).
"""

import sys
from importlib import import_module

#: each re-exported name, under the module that defines it (the import
#: runs on the name's first use, :func:`_lazy_exports`)
_EXPORTS = {
    "repro.core.account": ("TokenAccount",),
    "repro.core.api": ("Application",),
    "repro.core.meanfield": ("MeanFieldModel", "randomized_equilibrium"),
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
    "repro.experiments.config": ("ExperimentConfig",),
    "repro.experiments.runner": ("run_experiment",),
    "repro.registry": ("applications", "churn_models", "overlays", "strategies"),
    "repro.scenarios": ("ComponentRef", "NetworkSpec", "ScenarioSpec"),
    "repro.store.store": ("ResultStore",),
}


def _lazy_exports(package: str, exports):
    """The PEP 562 ``(__getattr__, __dir__)`` pair of ``package``'s re-exports.

    ``exports`` maps a defining module to the names ``package`` re-exports
    from it. A name's module is imported on the name's first access and
    the value is then cached in the package, so later lookups are plain
    attribute reads. ``repro``, ``repro.core`` and ``repro.serve`` share
    this one helper: importing any of them runs none of its modules, and
    ``repro serve`` loads the serving path alone (ARCHITECTURE.md,
    *Import graph*).
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "Application",
    "ComponentRef",
    "ExperimentConfig",
    "NetworkSpec",
    "ResultStore",
    "ScenarioSpec",
    "applications",
    "churn_models",
    "overlays",
    "strategies",
    "GeneralizedTokenAccount",
    "MeanFieldModel",
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
    "run_experiment",
    "__version__",
]
