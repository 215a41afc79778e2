"""Command-line interface: ``python -m repro <command>``.

Gives shell access to the main library entry points:

* ``run`` — run one configured experiment and print the metric series;
* ``list`` — enumerate the registered strategies, applications, overlays
  and churn models with their parameter schemas;
* ``figure`` — regenerate a paper figure (1–5) at a chosen scale;
* ``sweep`` — the §4.2 parameter-space exploration of one strategy;
* ``suite`` — the same suite over several strategies, with per-cell
  progress/ETA and a JSON artifact;
* ``report`` — rebuild figures or suite tables purely from a result
  store, simulating nothing (``repro report figure 2 --store runs/``);
* ``store`` — inspect (``ls``), prune (``gc``) or compare (``diff``)
  content-addressed result stores;
* ``serve`` — run the asyncio TCP admission server: every registered
  strategy as a live rate limiter (``repro serve --strategy simple -C 50
  --period 0.1 --port 7700``);
* ``loadgen`` — replay an open-loop Poisson or flash-crowd arrival
  pattern against a running server and report admitted/rejected counts
  and latency percentiles;
* ``trace`` — generate a synthetic STUNner-like availability trace to a
  file and print its Figure-1 statistics.

Passing ``--store PATH`` (or setting ``REPRO_STORE``) to ``run`` /
``figure`` / ``sweep`` / ``suite`` memoizes every simulated cell: reruns
skip cached cells bit-identically, and a killed suite resumes from the
cells it already finished.

Every choice list (``--app``, ``--strategy``, ``--overlay``,
``--scenario``) is derived from the component registries
(:mod:`repro.registry`), so registering a new component makes it
runnable from the shell with no CLI changes. Examples::

    python -m repro run --app push-gossip --strategy randomized -A 10 -C 20 \\
        --nodes 500 --periods 200
    python -m repro run --app chaotic-iteration --strategy randomized \\
        -A 5 -C 10 --scenario trace --nodes 300 --periods 100
    python -m repro run --app push-gossip --strategy randomized -A 10 -C 20 \\
        --overlay watts-strogatz --loss-rate 0.1
    python -m repro run --app gossip-learning --strategy simple -C 10 \\
        --scenario flash-crowd
    python -m repro list
    python -m repro figure 2 --app gossip-learning --scale ci
    python -m repro sweep --app push-gossip --strategy generalized
    python -m repro suite --app gossip-learning --workers 8 --save suite.json
    python -m repro trace --users 2000 --out trace.txt

Parallelism is controlled per-command with ``--workers`` or globally
with the ``REPRO_WORKERS`` environment variable (default: CPU count).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.registry import (
    ALL_REGISTRIES,
    applications,
    backends,
    churn_models,
    overlays,
    strategies,
)

if TYPE_CHECKING:  # pragma: no cover - types only; commands import their own
    from repro.experiments.scale import ScalePreset
    from repro.scenarios import ScenarioSpec


def _parse_component_param(text: str) -> tuple:
    """Parse a ``key=value`` override; values read as Python literals."""
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw  # plain strings may be spelled without quotes
    return key, value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {value}")
    return value


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: REPRO_WORKERS or the CPU count)",
    )


def _add_save_argument(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("--save", default=None, metavar="FILE", help=help_text)


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "content-addressed result store: reuse cached cells, persist "
            "new ones (default: the REPRO_STORE environment variable)"
        ),
    )


def _add_figure_arguments(parser: argparse.ArgumentParser) -> None:
    """What ``figure`` and ``report figure`` both take."""
    from repro.experiments.scale import scale_names

    parser.add_argument("number", type=int, help="figure number (1-5)")
    parser.add_argument("--app", choices=applications.names(), default=None)
    parser.add_argument("--scale", choices=scale_names(), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rows", type=_positive_int, default=12)
    parser.add_argument(
        "--quick", action="store_true", help="thinned strategy selection"
    )
    parser.add_argument(
        "--plot", action="store_true", help="render an ASCII chart of the series"
    )
    parser.add_argument(
        "--log", action="store_true", help="log-scale the chart's value axis"
    )
    _add_save_argument(parser, "write the figure data to FILE (.json/.csv)")


def _add_suite_arguments(parser: argparse.ArgumentParser) -> None:
    """What ``suite`` and ``report suite`` both take."""
    from repro.experiments.scale import scale_names
    from repro.experiments.sweep import sweepable_strategies
    from repro.scenarios import SCENARIOS

    parser.add_argument("--app", required=True, choices=applications.names())
    parser.add_argument(
        "--strategies",
        nargs="+",
        choices=sweepable_strategies(),
        default=None,
        help="strategies to include (default: simple, generalized, randomized)",
    )
    parser.add_argument("--scenario", choices=SCENARIOS, default="failure-free")
    parser.add_argument("--scale", choices=scale_names(), default=None)
    parser.add_argument("--seed", type=int, default=1)
    _add_save_argument(parser, "write the suite result document to FILE (.json)")
    _add_store_argument(parser)


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.scenarios import SCENARIOS

    parser.add_argument("--app", required=True, choices=applications.names())
    parser.add_argument("--strategy", required=True, choices=strategies.names())
    parser.add_argument("-A", "--spend-rate", type=int, default=None)
    parser.add_argument("-C", "--capacity", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("--periods", type=int, default=200)
    parser.add_argument("--scenario", choices=SCENARIOS, default="failure-free")
    parser.add_argument(
        "--churn",
        choices=churn_models.names(),
        default=None,
        help="churn model (overrides the --scenario preset's choice)",
    )
    parser.add_argument(
        "--overlay",
        choices=overlays.names(),
        default=None,
        help="overlay topology (default: the app's §4.1 overlay)",
    )
    parser.add_argument(
        "--backend",
        choices=backends.names(),
        default="event",
        help=(
            "simulation backend: 'event' is the exact discrete-event "
            "reference, 'vectorized' the bulk-synchronous NumPy engine "
            "for large --nodes (push-gossip scenarios)"
        ),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--loss-rate", type=float, default=0.0)
    parser.add_argument(
        "--transfer-jitter",
        type=float,
        default=0.0,
        help="relative uniform jitter on the per-message transfer time",
    )
    parser.add_argument(
        "--period-spread",
        type=float,
        default=0.0,
        help="heterogeneous node periods: uniform on period*(1±spread)",
    )
    parser.add_argument("--grading-scale", type=float, default=None)
    parser.add_argument(
        "--app-param",
        action="append",
        type=_parse_component_param,
        default=None,
        metavar="KEY=VALUE",
        help="extra application parameter (see `repro list`); repeatable",
    )
    parser.add_argument(
        "--churn-param",
        action="append",
        type=_parse_component_param,
        default=None,
        metavar="KEY=VALUE",
        help="extra churn-model parameter (see `repro list`); repeatable",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="verify the §3.4 burst bound after the run",
    )
    _add_save_argument(parser, "write the result to FILE (.json or .csv)")


def _config_from_args(args: argparse.Namespace) -> "ScenarioSpec":
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        app=args.app,
        strategy=args.strategy,
        spend_rate=args.spend_rate,
        capacity=args.capacity,
        n=args.nodes,
        periods=args.periods,
        scenario=args.scenario,
        overlay=args.overlay,
        seed=args.seed,
        loss_rate=args.loss_rate,
        transfer_jitter=args.transfer_jitter,
        period_spread=args.period_spread,
        grading_scale=args.grading_scale,
        audit_sends=args.audit,
        backend=args.backend,
    )


def _command_run(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_series_table
    from repro.experiments.runner import run_experiment
    from repro.scenarios import ComponentRef
    from repro.store import resolve_store

    spec = _config_from_args(args)
    churn = ComponentRef(args.churn) if args.churn else spec.churn
    spec = spec.with_overrides(
        app=spec.app.with_params(**dict(args.app_param or ())),
        churn=churn.with_params(**dict(args.churn_param or ())),
    )
    print(f"running {spec.label()} (N={spec.n}, periods={spec.periods})")
    result = run_experiment(spec, store=resolve_store(args.store))
    print(format_series_table({spec.strategy.name: result.metric}, rows=15))
    print()
    print(result.summary())
    if args.audit:
        if result.ratelimit_violations:
            print(f"BURST BOUND VIOLATED: {len(result.ratelimit_violations)} windows")
            return 1
        print("burst bound verified: no window exceeded ceil(t/Δ) + C sends")
    if args.save:
        from repro.experiments.export import save_result

        save_result(result, args.save)
        print(f"saved to {args.save}")
    return 0


def _command_list(args: argparse.Namespace) -> int:
    """Enumerate the component registries with their parameter schemas."""
    from repro.scenarios import SCENARIOS

    sections = ALL_REGISTRIES
    if args.kind:
        sections = {args.kind: ALL_REGISTRIES[args.kind]}
    first = True
    for title, registry in sections.items():
        if not first:
            print()
        first = False
        print(f"{title}:")
        for entry in registry:
            description = entry.describe().replace("\n", "\n  ")
            print(f"  {description}")
    print()
    print(f"scenarios (churn presets for --scenario): {', '.join(SCENARIOS)}")
    return 0


def _resolve_scale(name: Optional[str]) -> "ScalePreset":
    """Resolve ``--scale`` (explicit choice) or fall back to ``REPRO_SCALE``.

    The explicit choice is threaded as a :class:`ScalePreset` value and
    never written back to ``os.environ`` — mutating ``REPRO_SCALE``
    would leak one command's ``--scale`` into every later in-process
    invocation and into forked suite workers (regression-tested in
    ``tests/test_cli.py``).
    """
    from repro.experiments.scale import current_scale, scale_preset

    if name is None:
        return current_scale()
    return scale_preset(name)


def _figure_data(args: argparse.Namespace, offline: bool = False):
    """Compute (or, for reports, replay) one figure's data.

    ``offline=True`` is the ``repro report`` path: every simulation cell
    must come from the store, otherwise :class:`StoreMissError` escapes
    to the caller.
    """
    from repro.experiments import figures
    from repro.experiments.suite import SuiteRunner
    from repro.store import resolve_store

    scale = _resolve_scale(args.scale)
    number = args.number
    if number == 1:
        # Figure 1 is pure trace statistics — it has no simulation cells,
        # so it needs no store even in offline report mode.
        return figures.figure1(scale=scale, seed=args.seed)
    store = resolve_store(args.store)
    if offline and store is None:
        raise ValueError("repro report needs --store (or REPRO_STORE) for figures 2-5")
    runner = SuiteRunner(workers=args.workers, store=store, offline=offline)
    if number in (2, 3, 4):
        if args.app is None:
            raise ValueError("--app is required for figures 2-4")
        builder = {2: figures.figure2, 3: figures.figure3, 4: figures.figure4}[number]
        return builder(
            args.app, scale=scale, seed=args.seed, quick=args.quick, runner=runner
        )
    if number == 5:
        return figures.figure5(scale=scale, seed=args.seed, runner=runner)
    raise ValueError(f"unknown figure {number}; the paper has figures 1-5")


def _print_figure(data, args: argparse.Namespace) -> int:
    """Shared ``figure`` / ``report figure`` rendering path."""
    from repro.experiments.report import format_messages_per_node, format_series_table

    print(f"{data.name}: {data.description}")
    print(f"scale: {data.scale_label}\n")
    print(format_series_table(data.series, rows=args.rows))
    if args.plot:
        from repro.experiments.ascii_plot import ascii_chart

        print()
        print(
            ascii_chart(
                data.series,
                log_y=args.log,
                title=data.description,
            )
        )
    if data.message_rates:
        print()
        print(format_messages_per_node(data.message_rates))
    for key, value in data.extras.items():
        if key in ("meanfield",):
            continue
        print(f"\n{key}: {value}")
    if args.save:
        from repro.experiments.export import save_figure

        save_figure(data, args.save)
        print(f"saved to {args.save}")
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    return _print_figure(_figure_data(args), args)


def _sweep_bundle(args: argparse.Namespace, strategy_names, scale: "ScalePreset"):
    """The §4.2 suite behind ``sweep``, ``suite`` and ``report suite``."""
    from repro.experiments.sweep import sweep_suite

    return sweep_suite(
        args.app, strategy_names, scale=scale, seed=args.seed, scenario=args.scenario
    )


def _print_sweep_tables(args: argparse.Namespace, suite_result, heading: str) -> None:
    """One (A, C) table per strategy; every cell names its strategy itself."""
    from repro.experiments.sweep import format_sweep_table

    higher_is_better = applications.get(args.app).factory.higher_is_better
    direction = "higher" if higher_is_better else "lower"
    by_strategy: Dict[str, list] = {}
    for result in suite_result.results():
        by_strategy.setdefault(result.config.strategy.name, []).append(result)
    for strategy, results in by_strategy.items():
        print(heading.format(app=args.app, strategy=strategy, direction=direction))
        print(format_sweep_table(results, higher_is_better=higher_is_better))


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.suite import SuiteRunner
    from repro.store import resolve_store

    bundle = _sweep_bundle(args, [args.strategy], _resolve_scale(args.scale))
    runner = SuiteRunner(workers=args.workers, store=resolve_store(args.store))
    _print_sweep_tables(
        args,
        runner.run(bundle),
        "{app} / {strategy} over the (A, C) grid ({direction} is better):",
    )
    return 0


def _command_suite(args: argparse.Namespace, offline: bool = False) -> int:
    """Run the suite bundle and print its tables.

    ``offline=True`` is the ``repro report suite`` path: every cell is
    replayed from the store, and :class:`StoreMissError` escapes to the
    caller before anything is printed.
    """
    from collections import Counter

    from repro.experiments.suite import SuiteRunner, print_progress, worker_count
    from repro.store import resolve_store

    store = resolve_store(args.store)
    if offline and store is None:
        raise ValueError("repro report needs --store (or REPRO_STORE)")
    scale = _resolve_scale(args.scale)
    bundle = _sweep_bundle(
        args, args.strategies or ["simple", "generalized", "randomized"], scale
    )
    counts = Counter(spec.strategy.name for spec in bundle)
    parts = ", ".join(f"{name}({count})" for name, count in counts.items())
    cells = f"{len(bundle)} cells [{parts}]"
    if offline:
        suite_result = SuiteRunner(workers=1, store=store, offline=True).run(bundle)
        print(
            f"report {bundle.name}: {cells} "
            f"from store {store.root} (zero cells simulated)"
        )
    else:
        workers = worker_count(args.workers)
        store_note = f", store {store.root}" if store is not None else ""
        print(
            f"suite {bundle.name}: {cells} at scale {scale.name} with {workers} "
            f"worker(s){store_note}"
        )
        runner = SuiteRunner(
            workers=workers,
            progress=print_progress if not args.quiet else None,
            store=store,
        )
        suite_result = runner.run(bundle)
        if suite_result.serial_fallback_reason is not None:
            print(
                f"note: fell back to serial execution "
                f"({suite_result.serial_fallback_reason}); "
                f"process pools need fork support"
            )
        if store is not None:
            print(
                f"store: {suite_result.cache_hits} cache hit(s), "
                f"{suite_result.simulated_cells} simulated"
            )
    _print_sweep_tables(
        args, suite_result, "\n{app} / {strategy} ({direction} is better):"
    )
    print(f"\n{suite_result.summary()}")
    if args.save:
        from repro.experiments.export import save_suite

        save_suite(suite_result, args.save)
        print(f"saved to {args.save}")
    return 0


def _command_report(args: argparse.Namespace) -> int:
    """Rebuild figures / suite tables purely from the result store."""
    from repro.store import StoreMissError

    try:
        if args.target == "suite":
            return _command_suite(args, offline=True)
        data = _figure_data(args, offline=True)
        print("(report: rebuilt from the result store, zero cells simulated)")
        return _print_figure(data, args)
    except StoreMissError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _command_store(args: argparse.Namespace) -> int:
    """Inspect (``ls``), prune (``gc``) or compare (``diff``) stores."""
    from repro.experiments.report import format_store_diff, format_store_entries
    from repro.store import ResultStore, diff_stores, resolve_store

    if args.action == "diff":
        left, right = ResultStore(args.left), ResultStore(args.right)
        report = diff_stores(left, right)
        print(format_store_diff(report, str(left.root), str(right.root)))
        return 1 if report["differing"] else 0
    store = resolve_store(args.store)
    if store is None:
        raise ValueError(f"repro store {args.action} needs --store (or REPRO_STORE)")
    if args.action == "ls":
        entries = list(store.entries())
        print(f"store {store.root}: {len(entries)} entr(y/ies)")
        print(format_store_entries(entries))
        return 0
    # action == "gc"
    removed, kept = store.gc(remove_all=args.all)
    print(f"store {store.root}: removed {removed} entr(y/ies), kept {kept}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Run the admission server until stopped (or for --duration).

    SIGTERM and SIGINT stop it the way the end of --duration does: the
    summary line is printed and the exit status is 0. A public port it
    cannot bind is one ``error: cannot bind HOST:PORT`` line and exit
    status 1; a cluster's forked workers are stopped first. Any other
    :class:`OSError` is not a bind failure and propagates.
    """
    import asyncio
    from dataclasses import fields

    from repro.serve.connection import BindError
    from repro.serve.server import ServeConfig, run_server

    # every ServeConfig field is an argparse dest of the same name
    config = ServeConfig(**{f.name: getattr(args, f.name) for f in fields(ServeConfig)})
    try:
        if config.workers:
            # N worker servers behind a consistent-hash router on the public port
            from repro.serve.cluster import serve_cluster

            stats = serve_cluster(config, duration=args.duration)
        else:
            limiter = config.limiter()
            asyncio.run(run_server(limiter, config.host, config.port, args.duration))
            stats = limiter.stats()
    except BindError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if stats:
        cluster = (
            f" across {stats['workers']} worker(s), {stats['remaps']} remap(s)"
            if "workers" in stats
            else ""
        )
        print(
            f"served {stats['admitted']} admissions / {stats['rejected']} "
            f"rejections over {stats['keys']} key(s){cluster}"
        )
    return 0


def _command_loadgen(args: argparse.Namespace) -> int:
    """Drive a running admission server with an arrival pattern."""
    import asyncio
    import json as json_module

    from repro.scenarios import ArrivalSpec
    from repro.serve import run_loadgen

    spec = ArrivalSpec(
        pattern=args.pattern,
        rate=args.rate,
        peak_rate=args.peak_rate,
        start_fraction=args.burst_start,
        window_fraction=args.burst_window,
    )
    try:
        report = asyncio.run(
            run_loadgen(
                args.host,
                args.port,
                spec,
                duration=args.duration,
                connections=args.connections,
                keys=args.keys,
                seed=args.seed,
                pipeline=args.pipeline,
            )
        )
    except OSError as error:
        print(
            f"error: cannot reach {args.host}:{args.port} ({error}); "
            f"is `repro serve` running?",
            file=sys.stderr,
        )
        return 1
    print(report.format())
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2)
        print(f"saved to {args.save}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.churn.stats import trace_summary
    from repro.churn.stunner import StunnerTraceConfig, generate_stunner_like_trace
    from repro.sim.randomness import RandomStreams

    streams = RandomStreams(args.seed)
    config = StunnerTraceConfig(horizon=args.hours * 3600.0)
    trace = generate_stunner_like_trace(args.users, streams.stream("cli-trace"), config)
    print(f"generated: {trace_summary(trace)}")
    if args.out:
        trace.save(args.out)
        print(f"written to {args.out}")
    return 0


def _fill_run(parser: argparse.ArgumentParser) -> None:
    _add_experiment_arguments(parser)
    _add_store_argument(parser)
    parser.set_defaults(handler=_command_run)


def _fill_list(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "kind",
        nargs="?",
        choices=tuple(ALL_REGISTRIES),
        default=None,
        help="restrict the listing to one registry",
    )
    parser.set_defaults(handler=_command_list)


def _fill_figure(parser: argparse.ArgumentParser) -> None:
    _add_figure_arguments(parser)
    _add_workers_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(handler=_command_figure)


def _fill_sweep(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.scale import scale_names
    from repro.experiments.sweep import sweepable_strategies
    from repro.scenarios import SCENARIOS

    parser.add_argument("--app", required=True, choices=applications.names())
    parser.add_argument("--strategy", required=True, choices=sweepable_strategies())
    parser.add_argument("--scenario", choices=SCENARIOS, default="failure-free")
    parser.add_argument("--scale", choices=scale_names(), default=None)
    parser.add_argument("--seed", type=int, default=1)
    _add_workers_argument(parser)
    _add_store_argument(parser)
    parser.set_defaults(handler=_command_sweep)


def _fill_suite(parser: argparse.ArgumentParser) -> None:
    _add_suite_arguments(parser)
    _add_workers_argument(parser)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress/ETA lines"
    )
    parser.set_defaults(handler=_command_suite)


def _fill_report(parser: argparse.ArgumentParser) -> None:
    targets = parser.add_subparsers(dest="target", required=True)

    report_figure = targets.add_parser(
        "figure", help="rebuild a paper figure from stored cells"
    )
    _add_figure_arguments(report_figure)
    _add_store_argument(report_figure)
    report_figure.set_defaults(handler=_command_report, workers=1)

    report_suite = targets.add_parser(
        "suite", help="rebuild the multi-strategy sweep tables from stored cells"
    )
    _add_suite_arguments(report_suite)
    report_suite.set_defaults(handler=_command_report)


def _fill_store(parser: argparse.ArgumentParser) -> None:
    actions = parser.add_subparsers(dest="action", required=True)

    store_ls = actions.add_parser("ls", help="list stored cells")
    _add_store_argument(store_ls)
    store_ls.set_defaults(handler=_command_store)

    store_gc = actions.add_parser(
        "gc", help="remove stale-schema and unreadable entries"
    )
    store_gc.add_argument("--all", action="store_true", help="clear the store entirely")
    _add_store_argument(store_gc)
    store_gc.set_defaults(handler=_command_store)

    store_diff = actions.add_parser(
        "diff", help="compare two stores' grids cell by cell"
    )
    store_diff.add_argument("left", metavar="STORE_A")
    store_diff.add_argument("right", metavar="STORE_B")
    store_diff.set_defaults(handler=_command_store)


def _fill_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", required=True, choices=strategies.names())
    parser.add_argument("-A", "--spend-rate", type=int, default=None)
    parser.add_argument("-C", "--capacity", type=int, default=None)
    parser.add_argument(
        "--period",
        type=float,
        default=1.0,
        help="wall-clock seconds per token (steady admission rate = 1/period)",
    )
    parser.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="bind address (a host name binds its first address only)",
    )
    parser.add_argument(
        "--port", type=int, default=7700, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--shards", type=int, default=8, help="account-table lock shards"
    )
    parser.add_argument(
        "--max-keys",
        type=int,
        default=65536,
        help="LRU budget for per-key accounts across all shards",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "run a multi-process cluster: N worker servers behind a "
            "consistent-hash router on the public port "
            "(default: 0 = a single in-process server)"
        ),
    )
    parser.add_argument(
        "--cold-start",
        action="store_true",
        help=(
            "start fresh per-key accounts empty (the paper's cold start) "
            "instead of full — keeps the burst bound airtight across "
            "cluster failure remaps and LRU re-admissions"
        ),
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then exit (default: run forever)",
    )
    parser.set_defaults(handler=_command_serve)


def _fill_loadgen(parser: argparse.ArgumentParser) -> None:
    from repro.scenarios import ARRIVAL_PATTERNS

    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7700)
    parser.add_argument("--pattern", choices=ARRIVAL_PATTERNS, default="poisson")
    parser.add_argument(
        "--rate", type=float, default=1000.0, help="baseline requests per second"
    )
    parser.add_argument(
        "--peak-rate",
        type=float,
        default=10000.0,
        help="flash-crowd in-window requests per second",
    )
    parser.add_argument(
        "--burst-start",
        type=float,
        default=0.10,
        help="flash-crowd window start, as a fraction of --duration",
    )
    parser.add_argument(
        "--burst-window",
        type=float,
        default=0.10,
        help="flash-crowd window length, as a fraction of --duration",
    )
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument(
        "--keys", type=int, default=16, help="distinct account keys to spread over"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--pipeline",
        type=int,
        default=0,
        metavar="N",
        help="cap in-flight requests per connection (0 = unbounded)",
    )
    _add_save_argument(parser, "write the report document to FILE (.json)")
    parser.set_defaults(handler=_command_loadgen)


def _fill_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=2000)
    parser.add_argument("--hours", type=float, default=48.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=str, default=None)
    parser.set_defaults(handler=_command_trace)


#: every command in ``repro --help`` order: its name, its help line and
#: what fills in its arguments
_COMMANDS = (
    ("run", "run one experiment", _fill_run),
    ("list", "enumerate registered components and their parameters", _fill_list),
    ("figure", "regenerate a paper figure", _fill_figure),
    ("sweep", "§4.2 parameter sweep", _fill_sweep),
    (
        "suite",
        "run the multi-strategy (A, C) exploration as one parallel suite",
        _fill_suite,
    ),
    (
        "report",
        "rebuild figures / suite tables from a result store (no simulation)",
        _fill_report,
    ),
    ("store", "inspect, prune or compare result stores", _fill_store),
    ("serve", "run the TCP admission-control server", _fill_serve),
    ("loadgen", "replay an arrival pattern against a running server", _fill_loadgen),
    ("trace", "generate a synthetic smartphone trace", _fill_trace),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser: every command listed, ``command``'s arguments filled.

    Filling a command imports what its choices come from — the component
    registries load their modules, ``--scale`` and ``--strategies`` the
    experiment harness — so :func:`main` fills only the command it runs
    and ``repro serve`` starts without the simulator. ``None`` fills every
    command. The help a command prints is the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Token account algorithms (Danner & Jelasity, ICDCS 2018) — "
            "experiments, figures and sweeps"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fill in _COMMANDS:
        subparser = commands.add_parser(name, help=help_text)
        if command is None or command == name:
            fill(subparser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # the command is the first word: the top-level parser has no option but -h
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return status
    except ValueError as error:
        # Bad knob values (--workers 0, REPRO_WORKERS=junk, REPRO_SCALE=junk)
        # should read as usage errors, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout left early (`repro list | head -1`): what
        # is still buffered goes to the null device, so the interpreter's
        # exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
