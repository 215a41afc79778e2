"""The flat-keyword constructor of :class:`~repro.scenarios.ScenarioSpec`.

There is one configuration type, :class:`~repro.scenarios.ScenarioSpec`:
the declarative app x strategy x overlay x churn x network composition
that the runner, the backends, the suite runner, the result store and
the exporters all take. :func:`ExperimentConfig` is a *function*, not a
type: it takes the paper's knobs (§4.1) as flat keywords, routes each to
the component that declares it, and returns the spec —

    ExperimentConfig(app="push-gossip", strategy="randomized",
                     spend_rate=10, capacity=20, out_degree=5)

is ``ScenarioSpec(app=ComponentRef.of("push-gossip", ...),
strategy=ComponentRef.of("randomized", spend_rate=10, capacity=20),
overlay=ComponentRef.of("kout", k=5), ...)``. It hides the keyword →
component routing and nothing else; all validation is the spec's own,
so the accepted values for ``app``, ``strategy``, ``overlay`` and
``scenario`` are exactly the registered ones.

:data:`PAPER` (re-exported from :mod:`repro.scenarios`) collects the
published constants the keyword defaults come from.
"""

from __future__ import annotations

from typing import Optional

from repro.registry import applications, strategies
from repro.scenarios import (
    PAPER,
    ComponentRef,
    NetworkSpec,
    ScenarioSpec,
    scenario_preset,
)

__all__ = ["PAPER", "ExperimentConfig"]


def ExperimentConfig(
    app: str,
    strategy: str,
    spend_rate: Optional[int] = None,  # A
    capacity: Optional[int] = None,  # C
    n: int = PAPER.n_small,
    periods: int = PAPER.periods,
    period: float = PAPER.period,
    transfer_time: float = PAPER.transfer_time,
    scenario: str = "failure-free",  # churn preset name
    seed: int = 1,
    overlay: Optional[str] = None,  # None = the app's default (§4.1)
    out_degree: int = PAPER.out_degree,  # k-out overlay: k
    ws_degree: int = PAPER.ws_degree,  # Watts–Strogatz: degree
    ws_rewire: float = PAPER.ws_rewire,  # Watts–Strogatz: rewire
    inject_interval: float = PAPER.inject_interval,
    initial_tokens: int = PAPER.initial_tokens,
    sample_interval: Optional[float] = None,  # None = Δ/2
    collect_tokens: bool = False,
    audit_sends: bool = False,
    pull_on_rejoin: bool = True,
    reactive_injection: bool = False,
    reactive_fanout: int = 1,  # strategy "reactive" only: fanout
    loss_rate: float = 0.0,
    transfer_jitter: float = 0.0,
    period_spread: float = 0.0,
    grading_scale: Optional[float] = None,
    target_replication: int = 3,
    objects_per_node: float = 1.0,
    fail_fraction: float = 0.2,
    fail_window: tuple = (0.25, 0.35),
    detection_delay: Optional[float] = None,
    backend: str = "event",
) -> ScenarioSpec:
    """Build the :class:`ScenarioSpec` of one cell from flat keywords.

    ``strategy`` is one of ``proactive`` / ``simple`` / ``generalized`` /
    ``randomized`` (plus the ``reactive`` reference and the graded
    extensions), ``spend_rate`` is A, ``capacity`` is C; ``repro list``
    enumerates every registered component with its parameter schema.
    Each keyword lands on the one component that declares it: strategy
    keywords the strategy does not take are dropped (``spend_rate`` for
    ``simple``), application keywords go to the selected app only, the
    overlay keywords to the overlay they are named for, ``scenario`` to
    its churn preset and the transport keywords to the
    :class:`NetworkSpec`; the rest are spec fields of the same name.
    """
    churn = scenario_preset(scenario).churn
    app_registration = applications.get(app)
    app_keywords = {
        "grading_scale": grading_scale,
        "pull_on_rejoin": pull_on_rejoin,
        "inject_interval": inject_interval,
        "reactive_injection": reactive_injection,
        "target_replication": target_replication,
        "objects_per_node": objects_per_node,
        "fail_fraction": fail_fraction,
        "fail_window": fail_window,
        "detection_delay": detection_delay,
    }
    app_params = {
        name: value
        for name, value in app_keywords.items()
        if name in app_registration.param_names
    }
    strategy_params = strategies.get(strategy).filter_params(
        {"spend_rate": spend_rate, "capacity": capacity, "fanout": reactive_fanout}
    )
    if overlay is None:
        overlay = app_registration.factory.default_overlay
    overlay_params = {
        "kout": {"k": out_degree},
        "watts-strogatz": {"degree": ws_degree, "rewire": ws_rewire},
    }.get(overlay, {})
    return ScenarioSpec(
        app=ComponentRef.of(app, **app_params),
        strategy=ComponentRef.of(strategy, **strategy_params),
        overlay=ComponentRef.of(overlay, **overlay_params),
        churn=churn,
        network=NetworkSpec(
            transfer_time=transfer_time,
            loss_rate=loss_rate,
            transfer_jitter=transfer_jitter,
        ),
        n=n,
        periods=periods,
        period=period,
        period_spread=period_spread,
        seed=seed,
        initial_tokens=initial_tokens,
        sample_interval=sample_interval,
        collect_tokens=collect_tokens,
        audit_sends=audit_sends,
        backend=backend,
    )
