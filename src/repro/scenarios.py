"""Declarative scenarios: the app x strategy x overlay x churn x network matrix.

A :class:`ScenarioSpec` names one point in the evaluation matrix by
composing registry components (:mod:`repro.registry`) along five axes:

* **app** — which application plugin builds the per-node logic;
* **strategy** — the §3 proactive/reactive function pair;
* **overlay** — the communication topology (``None`` = the app's
  default, matching §4.1);
* **churn** — the availability model (``none`` / ``stunner-trace`` /
  ``flash-crowd`` / ...);
* **network** — transport behaviour: transfer time, an optional
  per-message transfer-time jitter, and i.i.d. in-transit loss;
* **backend** — the simulation engine that executes the scenario: the
  exact discrete-event reference (``"event"``) or the bulk-synchronous
  NumPy engine (``"vectorized"``) for large-N runs
  (:mod:`repro.backends`).

plus the structural knobs (``n``, ``periods``, ``period``, seeded
randomness) and ``period_spread`` for heterogeneous per-node proactive
periods. Components are referenced by registry name with validated
parameters, so *any* registered combination is runnable without touching
the runner — the paper's two hard-wired scenarios become just two named
presets in :data:`SCENARIO_PRESETS`, alongside combinations the original
harness could not express (chaotic iteration under the trace, lossy
small-world push gossip, a flash-crowd churn schedule).

Specs are frozen, picklable and fully determine a run together with
their ``seed``. The spec is the only configuration type: the flat
keywords callers know (``capacity=``, ``out_degree=``, ``scenario=``)
are :func:`repro.experiments.config.ExperimentConfig`, a function that
routes each keyword to its component and returns a spec, and
:meth:`ScenarioSpec.with_overrides` routes a component parameter name
the same way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

# ----------------------------------------------------------------------
# The paper's fixed experimental constants (§4.1)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PaperConstants:
    """The fixed experimental constants of §4.1."""

    #: proactive period Δ in seconds ("allowing for 1000 periods during
    #: the two-day interval")
    period: float = 172.8
    #: transfer time for one message ("1.728 s, a hundredth of the
    #: proactive period")
    transfer_time: float = 1.728
    #: out-degree of the random overlay ("a fixed 20-out network")
    out_degree: int = 20
    #: Watts–Strogatz ring degree ("connected to its closest 4 neighbors")
    ws_degree: int = 4
    #: Watts–Strogatz rewiring probability ("a probability of 0.01")
    ws_rewire: float = 0.01
    #: push gossip injection period ("17.28 s, that is, ... 10 updates in
    #: every proactive period")
    inject_interval: float = 17.28
    #: initial tokens ("the number of initial tokens ... is zero")
    initial_tokens: int = 0
    #: push gossip smoothing window ("averaging measurements over 15
    #: minute periods")
    smoothing_window: float = 900.0
    #: network sizes of the paper's experiments
    n_small: int = 5000
    n_large: int = 500_000
    periods: int = 1000


PAPER = PaperConstants()


# ----------------------------------------------------------------------
# Component references
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComponentRef:
    """A registry component by name, with frozen keyword parameters.

    Parameters are stored as a sorted tuple of ``(name, value)`` pairs so
    that refs are hashable, picklable and order-insensitive; build with
    :meth:`of` and read back with :attr:`kwargs`::

        ComponentRef.of("watts-strogatz", degree=4, rewire=0.1)
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "ComponentRef":
        """Build a ref from keyword parameters (canonically sorted)."""
        return cls(name, tuple(sorted(params.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The frozen parameters as a plain keyword dict."""
        return dict(self.params)

    def with_params(self, **updates: Any) -> "ComponentRef":
        """A copy with the given parameters merged over the existing ones."""
        merged = self.kwargs
        merged.update(updates)
        return ComponentRef.of(self.name, **merged)

    def label(self) -> str:
        """Human-readable ``name(param=value, ...)`` rendering."""
        if not self.params:
            return self.name
        inner = ", ".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class NetworkSpec:
    """Transport axis: latency model and in-transit loss."""

    #: base per-message transfer time in virtual seconds
    transfer_time: float = PAPER.transfer_time
    #: i.i.d. in-transit drop probability (0.0 = the paper's reliable
    #: transfer assumption)
    loss_rate: float = 0.0
    #: relative uniform jitter on the transfer time: each message takes
    #: ``transfer_time * (1 ± jitter)``, drawn from a dedicated stream
    transfer_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.transfer_time <= 0:
            raise ValueError(
                f"transfer_time must be positive, got {self.transfer_time}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if not 0.0 <= self.transfer_jitter < 1.0:
            raise ValueError(
                f"transfer_jitter must be in [0, 1), got {self.transfer_jitter}"
            )


# ----------------------------------------------------------------------
# Serving arrival patterns (the request-traffic side of the vocabulary)
# ----------------------------------------------------------------------
#: arrival patterns accepted by ``ArrivalSpec.pattern`` / ``repro loadgen``
ARRIVAL_PATTERNS: Tuple[str, ...] = ("uniform", "poisson", "flash-crowd")


@dataclass(frozen=True)
class ArrivalSpec:
    """A declarative request-arrival pattern for the serving layer.

    The load generator (:mod:`repro.serve.loadgen`) replays these
    open-loop against a live admission server. The flash-crowd fields
    mirror :class:`repro.churn.flash_crowd.FlashCrowdConfig` — the same
    surge vocabulary, applied to request traffic instead of node
    availability: a baseline rate, a burst window at ``peak_rate``, and
    an exponential decay back toward the baseline.
    """

    #: one of :data:`ARRIVAL_PATTERNS`
    pattern: str = "poisson"
    #: baseline arrival rate in requests per second
    rate: float = 100.0
    #: in-window rate of the flash crowd (ignored by other patterns)
    peak_rate: float = 1000.0
    #: start of the burst window, as a fraction of the run duration
    start_fraction: float = 0.10
    #: length of the burst window, as a fraction of the run duration
    window_fraction: float = 0.10
    #: post-burst decay time constant, as a fraction of the run duration
    #: (the analog of the churn model's mean sojourn)
    decay_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival pattern {self.pattern!r}; "
                f"expected one of {ARRIVAL_PATTERNS}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.pattern == "flash-crowd":
            if self.peak_rate < self.rate:
                raise ValueError(
                    f"peak_rate ({self.peak_rate}) must be >= rate ({self.rate})"
                )
            if not 0.0 <= self.start_fraction < 1.0:
                raise ValueError(
                    f"start_fraction must be in [0, 1), got {self.start_fraction}"
                )
            if self.window_fraction <= 0 or self.decay_fraction <= 0:
                raise ValueError(
                    "window_fraction and decay_fraction must be positive, got "
                    f"{self.window_fraction} and {self.decay_fraction}"
                )

    def label(self) -> str:
        """Short human-readable rendering for reports."""
        if self.pattern == "flash-crowd":
            return (
                f"flash-crowd({self.rate:g}->{self.peak_rate:g}/s "
                f"@{self.start_fraction:g}+{self.window_fraction:g})"
            )
        return f"{self.pattern}({self.rate:g}/s)"


# ----------------------------------------------------------------------
# Scenario presets (the named churn regimes behind ``--scenario``)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioPreset:
    """A named churn regime: the churn component plus a description."""

    name: str
    churn: ComponentRef
    summary: str = ""


SCENARIO_PRESETS: Dict[str, ScenarioPreset] = {
    "failure-free": ScenarioPreset(
        name="failure-free",
        churn=ComponentRef("none"),
        summary="every node online for the whole run (§4.1)",
    ),
    "trace": ScenarioPreset(
        name="trace",
        churn=ComponentRef("stunner-trace"),
        summary="synthetic STUNner-like smartphone availability trace (§4.1)",
    ),
    "flash-crowd": ScenarioPreset(
        name="flash-crowd",
        churn=ComponentRef("flash-crowd"),
        summary=(
            "a small always-on backbone joined by a sudden crowd that "
            "churns out again (extension)"
        ),
    ),
}

#: scenario names accepted by ``ExperimentConfig(scenario=...)`` and the CLI
SCENARIOS: Tuple[str, ...] = tuple(SCENARIO_PRESETS)


def scenario_preset(name: str) -> ScenarioPreset:
    """Look up a preset; unknown names list the valid choices."""
    try:
        return SCENARIO_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {SCENARIOS}"
        ) from None


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One fully declarative point in the scenario matrix.

    Validation happens at construction: component names resolve against
    the registries, parameters check against the declared schemas, the
    strategy and application plugin instantiate (so invalid values fail
    fast), and churn-incompatible applications are rejected.
    """

    app: ComponentRef
    strategy: ComponentRef
    #: ``None`` uses the application plugin's default overlay
    overlay: Optional[ComponentRef] = None
    churn: ComponentRef = ComponentRef("none")
    network: NetworkSpec = NetworkSpec()
    n: int = PAPER.n_small
    periods: int = PAPER.periods
    period: float = PAPER.period
    #: heterogeneous proactive periods: node ``i`` ticks with its own
    #: period drawn uniformly from ``period * (1 ± period_spread)``
    period_spread: float = 0.0
    seed: int = 1
    initial_tokens: int = PAPER.initial_tokens
    #: metric sampling interval; ``None`` defaults to Δ/2
    sample_interval: Optional[float] = None
    #: collect the average token balance series (Figure 5)
    collect_tokens: bool = False
    #: record per-node send timestamps for burst auditing
    audit_sends: bool = False
    #: simulation backend registry name (``"event"`` is the exact
    #: discrete-event reference; ``"vectorized"`` the bulk-synchronous
    #: NumPy engine). Part of the cell identity: results from different
    #: backends never share a store key.
    backend: str = "event"

    def __post_init__(self) -> None:
        from repro.registry import (
            applications,
            backends,
            churn_models,
            overlays,
            strategies,
        )

        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if self.periods < 1:
            raise ValueError(f"need at least 1 period, got {self.periods}")
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 <= self.period_spread < 1.0:
            raise ValueError(
                f"period_spread must be in [0, 1), got {self.period_spread}"
            )
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )
        backends.get(self.backend)  # unknown backend names fail fast
        app_registration = applications.get(self.app.name)
        app_registration.validate(self.app.kwargs)
        churn_models.get(self.churn.name).validate(self.churn.kwargs)
        if self.overlay is not None:
            overlays.get(self.overlay.name).validate(self.overlay.kwargs)
        if self.churn.name != "none" and not app_registration.factory.supports_churn:
            note = getattr(app_registration.factory, "churn_note", "")
            raise ValueError(
                f"app {self.app.name!r} does not support churn "
                f"(churn model {self.churn.name!r} requested)"
                + (f": {note}" if note else "")
            )
        # Instantiating the strategy and the plugin runs their own value
        # validation (C >= A, probability ranges, ...) at spec time.
        strategies.get(self.strategy.name).validate(self.strategy.kwargs)
        strategy = self.build_strategy()
        # The per-node account invariants, checked once up front so every
        # backend fails identically at spec time (the event engine would
        # raise from TokenAccount at node construction; the vectorized
        # kernel has no per-node accounts to catch it).
        if self.initial_tokens < 0 and not strategy.requires_overdraft:
            raise ValueError(
                f"initial_tokens must be >= 0, got {self.initial_tokens}"
            )
        capacity = strategy.token_capacity
        if capacity is not None and self.initial_tokens > capacity:
            raise ValueError(
                f"initial_tokens {self.initial_tokens} exceeds the strategy's "
                f"token capacity {capacity}"
            )
        self.build_plugin()

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Total simulated time in seconds."""
        return self.periods * self.period

    @property
    def effective_sample_interval(self) -> float:
        """The metric sampling interval (default: half a period)."""
        if self.sample_interval is None:
            return self.period / 2
        return self.sample_interval

    @property
    def scenario_name(self) -> str:
        """The preset name matching this spec's churn model, if any."""
        for preset in SCENARIO_PRESETS.values():
            if preset.churn.name == self.churn.name:
                return preset.name
        return self.churn.name

    # ------------------------------------------------------------------
    def build_plugin(self):
        """Instantiate the application plugin with this spec's parameters."""
        from repro.registry import applications

        return applications.create(self.app.name, **self.app.kwargs)

    def build_strategy(self):
        """Instantiate the configured strategy."""
        from repro.registry import strategies

        return strategies.create(self.strategy.name, **self.strategy.kwargs)

    def resolved_overlay(self) -> ComponentRef:
        """The overlay reference, falling back to the app's default."""
        if self.overlay is not None:
            return self.overlay
        from repro.registry import applications

        return ComponentRef(applications.get(self.app.name).factory.default_overlay)

    def label(self) -> str:
        """Short human-readable label for reports and plots."""
        return (
            f"{self.app.name}/{self.build_strategy().describe()}/"
            f"{self.scenario_name}"
        )

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with the given fields or component parameters replaced.

        A name that is a spec field replaces that field. Any other name
        goes to the one component of *this* spec — strategy, app,
        resolved overlay, churn or network — whose registered schema
        declares it (``spend_rate=5`` on a ``randomized`` spec re-keys
        its strategy ref; ``loss_rate=0.1`` the network), which is what
        lets :meth:`ExperimentSuite.from_grid` sweep ``capacity`` and
        ``seed`` alike. A name that no component declares, or more than
        one does, raises ``TypeError``.
        """
        spec_fields = {field.name for field in fields(self)}
        changes = {k: v for k, v in overrides.items() if k in spec_fields}
        routed = [name for name in overrides if name not in spec_fields]
        declared = self._declared_params() if routed else {}
        for name in routed:
            owners = [axis for axis, names in declared.items() if name in names]
            if len(owners) != 1:
                raise TypeError(
                    f"with_overrides() got {name!r}: not a spec field, and "
                    + (
                        f"declared by more than one component ({', '.join(owners)})"
                        if owners
                        else f"no component of {self.label()} declares it"
                    )
                )
            (axis,) = owners
            component = changes.get(axis, getattr(self, axis))
            if component is None:
                component = self.resolved_overlay()
            update = {name: overrides[name]}
            changes[axis] = (
                replace(component, **update)
                if axis == "network"
                else component.with_params(**update)
            )
        return replace(self, **changes)

    def _declared_params(self) -> Dict[str, Tuple[str, ...]]:
        """The parameter names each component axis of this spec declares."""
        from repro.registry import applications, churn_models, overlays, strategies

        return {
            "strategy": strategies.get(self.strategy.name).param_names,
            "app": applications.get(self.app.name).param_names,
            "overlay": overlays.get(self.resolved_overlay().name).param_names,
            "churn": churn_models.get(self.churn.name).param_names,
            "network": tuple(field.name for field in fields(NetworkSpec)),
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """A canonical, JSON-ready identity dict for content hashing.

        The result-store key (:func:`repro.store.cell_key`) is derived
        from this dict: it must cover every field that can influence a
        run, and nothing else. ``dataclasses.asdict`` does exactly that
        for a frozen spec; the ``kind`` tag keeps specs apart from any
        other configuration object a custom task may key by.
        """
        return {"kind": type(self).__name__, "fields": asdict(self)}
