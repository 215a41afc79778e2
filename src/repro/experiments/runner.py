"""Build and run configured experiments over the component registries.

:func:`run_experiment` is the one-call entry point used by tests,
benches and examples. It takes a :class:`~repro.scenarios.ScenarioSpec`,
built directly or through the flat-keyword constructor
:func:`~repro.experiments.config.ExperimentConfig`::

    from repro.experiments import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        app="push-gossip", strategy="randomized", spend_rate=10,
        capacity=20, n=500, periods=100, seed=7,
    ))
    print(result.metric.final())

Assembly is entirely registry-driven (no application-specific imports or
branches live here): the spec names an app plugin, a strategy, an
overlay and a churn model by registry name, and :class:`Experiment`
composes them —

* one root seed feeds named streams for overlay wiring, node phases and
  periods, protocol coin flips, peer sampling, churn generation, message
  loss/jitter and workload injection — so changing one component never
  perturbs the randomness of another;
* the churn model may return an availability trace, applied through
  :class:`~repro.churn.schedule.ChurnSchedule`; metrics then average
  over online nodes only;
* the application plugin contributes per-node apps, the optional
  workload driver, named substrate objects and the sampled metric.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.churn.schedule import ChurnSchedule
from repro.core.protocol import TokenAccountNode
from repro.core.ratelimit import RateLimitAuditor
from repro.metrics.collectors import MetricCollector, TokenBalanceCollector
from repro.metrics.series import TimeSeries
from repro.overlay.peer_sampling import PeerSampler
from repro.registry import BuildContext, churn_models, overlays
from repro.scenarios import ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkStats
from repro.sim.randomness import RandomStreams


@dataclass
class ExperimentResult:
    """Time series and accounting from one finished run."""

    config: ScenarioSpec
    label: str
    #: the application's performance metric over time
    metric: TimeSeries
    #: average token balance over time (only when ``collect_tokens``)
    tokens: Optional[TimeSeries]
    #: transport counters
    network: NetworkStats
    #: total Algorithm-4 data messages sent
    data_messages: int
    #: data messages per node per period — the communication *rate*,
    #: which the token account service must keep at the proactive level
    messages_per_node_per_period: float
    #: §3.4 burst-bound violations (only when ``audit_sends``); must be []
    ratelimit_violations: List = field(default_factory=list)
    #: surviving distinct random walks (gossip learning only, §4.2)
    surviving_walks: Optional[int] = None
    #: every key the application plugin's ``result_extras`` returned
    #: (``surviving_walks`` is mirrored into the dedicated field above)
    extras: Dict[str, Any] = field(default_factory=dict)
    #: wall-clock seconds the run took
    elapsed: float = 0.0
    #: engine events processed (throughput accounting: events / elapsed)
    events_processed: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        parts = [
            self.label,
            (
                f"final={self.metric.final():.4g}"
                if not self.metric.empty
                else "final=n/a"
            ),
            f"msgs/node/period={self.messages_per_node_per_period:.3f}",
        ]
        if self.tokens is not None and not self.tokens.empty:
            parts.append(f"avg-tokens={self.tokens.final():.2f}")
        if self.surviving_walks is not None:
            parts.append(f"walks={self.surviving_walks}")
        return "  ".join(parts)


class Experiment:
    """A fully wired simulation, ready to run.

    Substrate objects contributed by the application plugin (placement
    maps, failure detectors/injectors, ...) are exposed as attributes
    under the names the plugin chose; the common ones default to
    ``None`` so callers can probe them uniformly.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        streams = RandomStreams(spec.seed)
        self.streams = streams
        self.sim = Simulator()
        net = spec.network
        self.network = Network(
            self.sim,
            net.transfer_time,
            loss_rate=net.loss_rate,
            loss_rng=(streams.stream("message-loss") if net.loss_rate > 0 else None),
            transfer_jitter=net.transfer_jitter,
            transfer_rng=(
                streams.stream("transfer-jitter")
                if net.transfer_jitter > 0
                else None
            ),
        )
        if spec.audit_sends:
            self.auditor: Optional[RateLimitAuditor] = RateLimitAuditor(self.network)
        else:
            self.auditor = None

        # --- components from the registries ---------------------------
        self.plugin = spec.build_plugin()
        self.strategy = spec.build_strategy()

        # --- overlay -------------------------------------------------
        overlay_ref = spec.resolved_overlay()
        self.overlay = overlays.create(
            overlay_ref.name, spec.n, streams.stream("overlay"), **overlay_ref.kwargs
        )
        self.sampler = PeerSampler(
            self.overlay, self.network, streams.stream("peer-sampling")
        )

        # --- churn ----------------------------------------------------
        self.trace = churn_models.create(
            spec.churn.name,
            spec.n,
            streams.stream("churn"),
            spec.horizon,
            **spec.churn.kwargs,
        )
        self.schedule = ChurnSchedule(self.trace) if self.trace is not None else None

        # --- applications & nodes -------------------------------------
        context = BuildContext(
            spec=spec,
            sim=self.sim,
            network=self.network,
            overlay=self.overlay,
            sampler=self.sampler,
            streams=streams,
        )
        self._context = context
        apps = self.plugin.build_apps(context)
        phase_rng = streams.stream("phases")
        protocol_rng = streams.stream("protocol")
        period_rng = streams.stream("periods") if spec.period_spread > 0 else None
        self.nodes: List[TokenAccountNode] = []
        for node_id in range(spec.n):
            online = True
            if self.schedule is not None:
                online = self.schedule.initial_online(node_id)
            period = spec.period
            if period_rng is not None:
                # Heterogeneous proactive periods: uniform on ±spread.
                period *= 1.0 + spec.period_spread * (2.0 * period_rng.random() - 1.0)
            node = TokenAccountNode(
                node_id=node_id,
                sim=self.sim,
                network=self.network,
                peer_sampler=self.sampler,
                strategy=self.strategy,
                app=apps[node_id],
                period=period,
                rng=protocol_rng,
                initial_tokens=spec.initial_tokens,
                online=online,
            )
            # Each node gets its own phase but shares the protocol rng;
            # event order is deterministic, so this is reproducible and
            # avoids half a million Mersenne Twister states.
            node.process.phase = phase_rng.random() * period
            self.network.register(node)
            self.nodes.append(node)

        # --- application substrate ------------------------------------
        # Core state a plugin's environment keys must not clobber: what
        # exists already, plus the attributes assigned below.
        reserved = set(vars(self)) | {
            "workload",
            "injector",
            "collector",
            "token_collector",
        }
        self.placement = None
        self.failure_detector = None
        self.failure_injector = None
        for name, value in self.plugin.build_environment(
            context, self.nodes, apps
        ).items():
            if name in reserved:
                raise ValueError(
                    f"app {self.plugin.name!r} environment key {name!r} "
                    "collides with core Experiment state"
                )
            setattr(self, name, value)

        # --- bootstrap for never-proactive strategies ------------------
        # The flooding reference never initiates (proactive = 0); kick one
        # message per node at its phase so the cascades exist at all.
        if self.strategy.bootstrap_kick:
            for node in self.nodes:
                self.sim.schedule_at(node.process.phase, node.kick)

        # --- workload -------------------------------------------------
        self.workload = self.plugin.build_workload(context, self.nodes)
        #: legacy alias: push gossip's workload is its update injector
        self.injector = self.workload

        # --- metrics ---------------------------------------------------
        self._metric_obj = self.plugin.build_metric(context, self.nodes, self.workload)
        self.collector = MetricCollector(
            self.sim, spec.effective_sample_interval, self._metric_obj
        )
        self.token_collector: Optional[TokenBalanceCollector] = None
        if spec.collect_tokens:
            self.token_collector = TokenBalanceCollector(
                self.sim, spec.effective_sample_interval, self.nodes
            )

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the run to the horizon and assemble the result."""
        spec = self.spec
        started = _wallclock.perf_counter()
        if self.schedule is not None:
            self.schedule.apply(self.sim, self.nodes)
        for node in self.nodes:
            node.start()
        if self.workload is not None:
            self.workload.start()
        self.collector.start()
        if self.token_collector is not None:
            self.token_collector.start()
        self.sim.run(until=spec.horizon)
        elapsed = _wallclock.perf_counter() - started

        data_messages = self.network.stats.by_kind.get("data", 0)
        violations: List = []
        if self.auditor is not None and self.strategy.token_capacity is not None:
            # With heterogeneous periods the §3.4 bound must hold for the
            # fastest node, so audit against the smallest possible period.
            audit_period = spec.period * (1.0 - spec.period_spread)
            violations = self.auditor.check(audit_period, self.strategy.token_capacity)
        extras = self.plugin.result_extras(self._context, self._metric_obj)
        return ExperimentResult(
            config=spec,
            label=spec.label(),
            metric=self.collector.series,
            tokens=(self.token_collector.series if self.token_collector else None),
            network=self.network.stats,
            data_messages=data_messages,
            messages_per_node_per_period=data_messages / (spec.n * spec.periods),
            ratelimit_violations=violations,
            surviving_walks=extras.get("surviving_walks"),
            extras=extras,
            elapsed=elapsed,
            events_processed=self.sim.processed,
        )


def execute_backend(spec: ScenarioSpec) -> ExperimentResult:
    """Dispatch one spec to its simulation backend.

    The spec's ``backend`` field names a :data:`repro.registry.backends`
    entry (``"event"`` = the exact discrete-event reference built by
    :class:`Experiment`; ``"vectorized"`` = the bulk-synchronous NumPy
    engine). Every execution path — direct runs, suites, sweeps,
    figures — funnels through here, so a suite mixing backends just
    works and the store keys each cell under its backend.
    """
    from repro.registry import backends

    return backends.create(spec.backend).run(spec)


def run_experiment(config: ScenarioSpec, store=None) -> ExperimentResult:
    """Build and run one experiment (the main library entry point).

    With a :class:`~repro.store.ResultStore` passed as ``store``, the
    run is memoized: a prior result for the same configuration (and
    code-schema version) is returned without simulating, and a fresh
    result is persisted for the next caller. ``None`` (the default)
    always simulates.
    """
    if store is not None:
        cached = store.get(config)
        if cached is not None:
            return cached
    result = execute_backend(config)
    if store is not None:
        store.put(config, result)
    return result


#: root-seed spacing between the repetitions of one configuration
REPEAT_SEED_OFFSET = 1000


def replicate_seeds(config: ScenarioSpec, repeats: int) -> List[ScenarioSpec]:
    """The ``repeats`` seed variants behind an averaged run.

    Every repetition is the same configuration under an independent root
    seed (``seed + i * REPEAT_SEED_OFFSET``). Exposed separately from
    :func:`run_averaged` so that a suite can fan the repetitions out to
    worker processes and average afterwards with
    :func:`average_results`.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return [
        config.with_overrides(seed=config.seed + i * REPEAT_SEED_OFFSET)
        for i in range(repeats)
    ]


def run_averaged(config: ScenarioSpec, repeats: int) -> ExperimentResult:
    """Average the metric over ``repeats`` independent seeds (§4.2 runs 10).

    Series are averaged pointwise; all runs share the sampling grid, so
    this matches the paper's "the average of these runs is shown".
    """
    return average_results(
        [run_experiment(c) for c in replicate_seeds(config, repeats)]
    )


def average_results(results: List[ExperimentResult]) -> ExperimentResult:
    """Merge independent repetitions of one configuration (see §4.2)."""
    if not results:
        raise ValueError("no results to average")
    repeats = len(results)
    if repeats == 1:
        return results[0]
    base = results[0]
    merged_metric = _average_series([r.metric for r in results])
    merged_tokens = None
    if base.tokens is not None:
        merged_tokens = _average_series(
            [r.tokens for r in results if r.tokens is not None]
        )
    total_data = sum(r.data_messages for r in results)
    return ExperimentResult(
        config=base.config,
        label=base.label,
        metric=merged_metric,
        tokens=merged_tokens,
        network=base.network,
        data_messages=total_data // repeats,
        messages_per_node_per_period=(
            sum(r.messages_per_node_per_period for r in results) / repeats
        ),
        ratelimit_violations=[v for r in results for v in r.ratelimit_violations],
        surviving_walks=base.surviving_walks,
        extras=base.extras,
        elapsed=sum(r.elapsed for r in results),
        events_processed=sum(r.events_processed for r in results),
    )


def _average_series(series_list: List[TimeSeries]) -> TimeSeries:
    """Pointwise average of series sharing (approximately) one time grid."""
    if not series_list:
        raise ValueError("no series to average")
    shortest = min(len(s) for s in series_list)
    averaged = TimeSeries()
    for index in range(shortest):
        time = series_list[0].times[index]
        value = sum(s.values[index] for s in series_list) / len(series_list)
        averaged.append(time, value)
    return averaged
