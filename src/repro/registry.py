"""Pluggable component registries: name -> factory, with parameter schemas.

The experiment harness is assembled from four kinds of components, each
kept in its own :class:`Registry`:

* **strategies** — the proactive/reactive function pairs of §3
  (:mod:`repro.core.strategies`, :mod:`repro.core.grading`);
* **applications** — :class:`ApplicationPlugin` bundles that know how to
  build one application's per-node apps, workload, substrate and metric
  (:mod:`repro.apps`);
* **overlays** — topology builders (:mod:`repro.overlay`);
* **churn models** — availability-trace generators (:mod:`repro.churn`);
* **backends** — simulation execution engines (:mod:`repro.backends`):
  the exact discrete-event reference and the bulk-synchronous NumPy
  vectorized engine for large-N runs.

Components register themselves with a decorator::

    from repro.registry import ParamSpec, overlays

    @overlays.register(
        "kout",
        summary="fixed random k-out overlay (the paper's default)",
        params=(ParamSpec("k", "int", default=20, help="out-degree"),),
    )
    def _build(n, rng, k=20):
        return random_kout_overlay(n, k, rng)

and are instantiated by name through :meth:`Registry.create`, which
validates keyword parameters against the declared :class:`ParamSpec`
schema (unknown and missing-required parameters fail fast with the list
of valid choices). The registries lazily import the built-in component
modules on first lookup, so importing :mod:`repro.registry` alone stays
cheap and free of cycles.

The scenario layer (:mod:`repro.scenarios`) and the experiment runner
(:mod:`repro.experiments.runner`) are written purely against these
registries: adding a new application, overlay or churn model is one
registered factory away from being usable in ``repro run`` / ``repro
suite`` — no edits to the runner, CLI or sweep code.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.api import Application
    from repro.overlay.graph import Overlay
    from repro.overlay.peer_sampling import PeerSampler
    from repro.scenarios import ScenarioSpec
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.randomness import RandomStreams


# ----------------------------------------------------------------------
# Parameter schemas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a registered component factory."""

    name: str
    #: human-readable type tag ("int", "float", "bool", "str", "tuple")
    type: str = "str"
    default: Any = None
    required: bool = False
    help: str = ""

    def describe(self) -> str:
        """Render as ``name: type = default`` (or ``required``)."""
        tail = "required" if self.required else f"default {self.default!r}"
        text = f"{self.name}: {self.type} ({tail})"
        if self.help:
            text += f" — {self.help}"
        return text


@dataclass(frozen=True)
class Registration:
    """One registry entry: a named factory plus its parameter schema."""

    kind: str
    name: str
    factory: Callable[..., Any]
    summary: str = ""
    params: Tuple[ParamSpec, ...] = ()

    @property
    def param_names(self) -> Tuple[str, ...]:
        """The declared parameter names, in declaration order."""
        return tuple(spec.name for spec in self.params)

    def param(self, name: str) -> ParamSpec:
        """Look up one declared :class:`ParamSpec` by name."""
        for spec in self.params:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def filter_params(self, candidates: Mapping[str, Any]) -> Dict[str, Any]:
        """Keep the candidates this component declares, dropping ``None``.

        The bridge from flat keyword surfaces (``make_strategy``'s unified
        signature, the ``ExperimentConfig(...)`` constructor's strategy
        keywords) to the strict per-component schema: one filter, used by
        every such surface, so they cannot drift apart.
        """
        declared = set(self.param_names)
        return {
            key: value
            for key, value in candidates.items()
            if key in declared and value is not None
        }

    def validate(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Check ``params`` against the schema; returns them as a dict.

        Unknown names, missing required parameters and type mismatches
        raise ``ValueError`` with the component's schema, so
        configuration mistakes (including CLI ``--app-param`` typos)
        read as usage errors rather than ``TypeError`` tracebacks from
        deep inside a factory.
        """
        known = set(self.param_names)
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(
                f"{self.kind} {self.name!r} got unknown parameter(s) "
                f"{', '.join(repr(name) for name in unknown)}; "
                f"accepted: {', '.join(self.param_names) or '(none)'}"
            )
        for spec in self.params:
            if spec.required and params.get(spec.name) is None:
                raise ValueError(
                    f"{self.kind} {self.name!r} requires parameter {spec.name!r} "
                    f"({spec.describe()})"
                )
            value = params.get(spec.name)
            if value is not None and not _type_matches(spec.type, value):
                raise ValueError(
                    f"{self.kind} {self.name!r} parameter {spec.name!r} "
                    f"expects {spec.type}, got {value!r}"
                )
        return dict(params)

    def describe(self) -> str:
        """One block of ``repro list`` output."""
        lines = [f"{self.name}" + (f" — {self.summary}" if self.summary else "")]
        for spec in self.params:
            lines.append(f"    {spec.describe()}")
        return "\n".join(lines)


#: accepted runtime types per ParamSpec.type tag (bool is excluded from
#: the numeric tags: ``True`` is a valid int in Python but almost
#: certainly a configuration mistake for an ``int`` parameter)
_TYPE_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "int": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "float": lambda value: (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ),
    "bool": lambda value: isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "tuple": lambda value: isinstance(value, (tuple, list)),
}


def _type_matches(type_tag: str, value: Any) -> bool:
    check = _TYPE_CHECKS.get(type_tag)
    return True if check is None else check(value)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class Registry:
    """A name -> :class:`Registration` mapping with lazy built-in loading.

    Parameters
    ----------
    kind:
        Human-readable component kind used in error messages ("app",
        "strategy", "overlay", "churn model").
    builtin_modules:
        Modules imported on first lookup; importing them runs their
        ``@registry.register(...)`` decorators. Keeping the list here
        (instead of importing eagerly) avoids import cycles between the
        registry and the component modules.
    """

    def __init__(self, kind: str, builtin_modules: Sequence[str] = ()):
        self.kind = kind
        self._builtin_modules = tuple(builtin_modules)
        self._entries: Dict[str, Registration] = {}
        self._loaded = False

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        summary: str = "",
        params: Sequence[ParamSpec] = (),
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register ``factory`` under ``name``."""

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._entries:
                raise ValueError(f"duplicate {self.kind} registration {name!r}")
            self._entries[name] = Registration(
                kind=self.kind,
                name=name,
                factory=factory,
                summary=summary,
                params=tuple(params),
            )
            return factory

        return decorator

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        # Flag only after every import succeeds: a failed builtin import
        # must surface again on the next lookup, not leave a silently
        # truncated registry behind. (Re-imports of the modules that did
        # succeed are no-ops — Python caches them in sys.modules.)
        for module in self._builtin_modules:
            importlib.import_module(module)
        self._loaded = True

    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        self._ensure_loaded()
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[Registration]:
        self._ensure_loaded()
        return iter(self._entries.values())

    def get(self, name: str) -> Registration:
        """Look up a registration; unknown names list the valid choices."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; expected one of {self.names()}"
            ) from None

    def create(self, name: str, *args: Any, **params: Any) -> Any:
        """Validate ``params`` and call the factory.

        Positional ``args`` carry the assembly context (``n``, ``rng``,
        ``horizon``, ...) that is not part of the declared schema.
        """
        registration = self.get(name)
        return registration.factory(*args, **registration.validate(params))

    def describe(self) -> str:
        """Multi-block human-readable catalog of every registration."""
        self._ensure_loaded()
        return "\n".join(entry.describe() for entry in self._entries.values())


# ----------------------------------------------------------------------
# The application plugin contract
# ----------------------------------------------------------------------
@dataclass
class BuildContext:
    """Everything an :class:`ApplicationPlugin` may need during assembly.

    Handed to the plugin hooks by the scenario builder
    (:class:`repro.experiments.runner.Experiment`); plugins draw any
    randomness from named :attr:`streams` so assembly stays deterministic
    and component-independent (the PR 1 determinism contract).
    """

    spec: "ScenarioSpec"
    sim: "Simulator"
    network: "Network"
    overlay: "Overlay"
    sampler: "PeerSampler"
    streams: "RandomStreams"


class ApplicationPlugin(ABC):
    """Assembly hooks contributed by one registered application.

    The experiment runner builds every scenario through this interface —
    it never imports an application module directly. Subclasses accept
    their declared parameters as keyword arguments (the registry
    validates them first) and implement:

    * :meth:`build_apps` — one :class:`~repro.core.api.Application` per
      node (called before nodes exist);
    * :meth:`build_metric` — the scalar performance metric sampled into
      the result's time series;

    and optionally:

    * :meth:`build_workload` — an external driver with a ``start()``
      method (e.g. the push gossip update injector);
    * :meth:`build_environment` — named substrate objects (placement
      maps, failure injectors, ...) exposed as attributes on the built
      :class:`~repro.experiments.runner.Experiment`;
    * :meth:`result_extras` — extra result values derived after the
      run; all keys land in ``ExperimentResult.extras``, and
      ``surviving_walks`` is additionally mirrored into the dedicated
      result field.
    """

    #: registry name (set by convention to match the registration)
    name: str = "abstract"
    #: overlay registry name used when the spec does not pick one
    default_overlay: str = "kout"
    #: whether the application is meaningful under churn schedules
    supports_churn: bool = True
    #: why churn is unsupported (shown in the rejection error)
    churn_note: str = ""
    #: direction of the metric: which cell ``repro sweep`` / ``suite`` stars
    higher_is_better: bool = False

    @abstractmethod
    def build_apps(self, ctx: BuildContext) -> List["Application"]:
        """One application instance per node, in node-id order."""

    def build_workload(self, ctx: BuildContext, nodes: Sequence[Any]) -> Any:
        """An optional workload driver (``start()``-able), or ``None``."""
        return None

    def build_environment(
        self, ctx: BuildContext, nodes: Sequence[Any], apps: Sequence["Application"]
    ) -> Dict[str, Any]:
        """Optional named substrate objects, attached to the experiment."""
        return {}

    @abstractmethod
    def build_metric(
        self, ctx: BuildContext, nodes: Sequence[Any], workload: Any
    ) -> Callable[[float], Optional[float]]:
        """The sampled performance metric ``f(now) -> value``."""

    def result_extras(self, ctx: BuildContext, metric: Any) -> Dict[str, Any]:
        """Extra result values; exposed as ``ExperimentResult.extras``."""
        return {}


# ----------------------------------------------------------------------
# The global registries
# ----------------------------------------------------------------------
strategies = Registry(
    "strategy",
    builtin_modules=("repro.core.strategies", "repro.core.grading"),
)

applications = Registry(
    "app",
    builtin_modules=(
        "repro.apps.gossip_learning",
        "repro.apps.push_gossip",
        "repro.apps.chaotic_iteration",
        "repro.apps.replication",
    ),
)

overlays = Registry(
    "overlay",
    builtin_modules=("repro.overlay.kout", "repro.overlay.watts_strogatz"),
)

churn_models = Registry("churn model", builtin_modules=("repro.churn.models",))

backends = Registry("backend", builtin_modules=("repro.backends",))

#: the five registries, keyed by the section names ``repro list`` prints
ALL_REGISTRIES: Dict[str, Registry] = {
    "strategies": strategies,
    "applications": applications,
    "overlays": overlays,
    "churn-models": churn_models,
    "backends": backends,
}
