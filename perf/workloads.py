"""The seven workloads: what each one runs, measures and checks.

Every workload fills ``seconds`` with calibrated windows (see
:mod:`perf.measure`), runs its correctness checks, and returns an
:class:`Outcome` holding every end-to-end metric plus the per-layer
figures only it can know (CPU per decision of *its* server, admit share
of *its* traffic). ``perf/README.md`` says why each workload exists and
which layer each one is expected to expose.
"""

from __future__ import annotations

import asyncio
import math
import os
import re
import tempfile
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from time import perf_counter, process_time
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence

import numpy as np

from perf import ROOT, client, layers, procs
from perf.measure import (
    Calibrator,
    Windows,
    iqr_share,
    percentile,
    quartiles,
    stolen_ticks,
    top_percentile,
)
from perf.spans import Recorder
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import execute_backend
from repro.experiments.suite import ExperimentSuite, SuiteRunner
from repro.scenarios import ArrivalSpec
from repro.serve.limiter import TokenAccountLimiter
from repro.serve.loadgen import run_loadgen
from repro.store import ResultStore

#: closed-loop requests in flight per connection, and connections
DEPTH = 512
CONNECTIONS = 2

#: set-ups timed per run (``--quick``: one); ``setup_s`` is their median
SETUP_SAMPLES = 3

#: seconds per closed-loop / embedded window, and per open-loop window
WINDOW_S = 0.2
PACED_WINDOW_S = 0.05

#: the open-loop latency limit (from due time) and the paced offered rate:
#: low enough that the server is busy a third of the time at reference
#: speed, so a request seldom queues behind another and the latency
#: follows the machine's speed in proportion (at 20 000/s the server was
#: busy two thirds of the time, and a box 1.5x slower read 15 % worse
#: after scaling)
LIMIT_S = 0.005
PACED_RATE = 10_000.0
LADDER_RATES = (20_000.0, 50_000.0, 100_000.0, 200_000.0)
LADDER_STEP_S = 0.75

#: median latency of the paced stream against the null server on the
#: machine all timed metrics are scaled to (see :class:`PacedCalibrator`)
PACED_REF_S = 38e-6

#: a saturation workload may use at most this share of the driver's ceiling
CEILING_SHARE = 0.5

SIM_STRATEGIES = (
    dict(strategy="proactive"),
    dict(strategy="simple", capacity=10),
    dict(strategy="generalized", spend_rate=10, capacity=20),
    dict(strategy="randomized", spend_rate=10, capacity=20),
)
SIM_PERIODS = 40
SIM_NODES = {"event": 500, "vectorized": 50_000}

#: which :class:`~perf.measure.Calibrator` kind scales a workload's times
#: (``interp`` where not named)
CALIBRATION = {"sim_vectorized": "array"}


@dataclass
class Stat:
    """One reported figure: a median with its quartiles and sample count."""

    value: float
    q1: Optional[float] = None
    q3: Optional[float] = None
    n: int = 1

    @classmethod
    def of(cls, values: Sequence[float]) -> "Stat":
        q1, median, q3 = quartiles(values)
        return cls(median, q1, q3, len(values))


@dataclass(frozen=True)
class Plan:
    """What the command line asked one workload run to do."""

    name: str
    seed: int
    seconds: float
    setup_samples: int
    trace: bool
    cores: procs.Cores
    #: the machine's slowness right now, 1.0 = reference (a ``Calibrator``)
    calib: Calibrator
    #: where a traced run's own spans go; an untraced run records nothing
    recorder: Recorder = field(default_factory=lambda: Recorder(enabled=False))

    def windows(self, cores: AbstractSet[int]) -> Windows:
        """An empty measured phase; ``cores`` are the ones the workload keeps busy."""
        return Windows(self.calib, partial(stolen_ticks, cores))

    def at_reference(self, seconds: float, slow_before: float) -> float:
        """``seconds`` just measured, at reference speed (calibrates once more)."""
        return seconds / ((slow_before + self.calib()) / 2.0)


@dataclass
class Outcome:
    """What one workload run measured and whether its checks held."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    stats: Dict[str, Stat] = field(default_factory=dict)

    def put(self, name: str, value) -> None:
        self.stats[name] = value if isinstance(value, Stat) else Stat(float(value))

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def put_windows(self, plan: Plan, windows: Windows, saturated: bool = True) -> None:
        """The metrics every workload derives from its windows the same way.

        Taken over the steady windows (those without steal). Latency is
        CPU work end to end on every workload (a closed loop queues
        behind a busy server, a lone paced request pays its own
        wake-ups), so it scales with machine speed and is normalised. A
        rate is normalised only when the workload is ``saturated``: an
        open loop's rate is the offered one whatever the machine's speed.
        """
        steady = windows.steady()
        rates = [w.rate if saturated else w.raw_rate for w in steady]
        self.put("ops_per_s", Stat.of(rates))
        self.put("latency_p50_ms", Stat.of([w.latency for w in steady]))
        self.put("client.raw_ops_per_s", Stat.of([w.raw_rate for w in windows.items]))
        self.put(
            "client.raw_latency_p50_ms", Stat.of([w.latency_ms for w in windows.items])
        )
        self.put(
            "client.calib_ms",
            Stat.of([w.speed * plan.calib.ref_s * 1e3 for w in windows.items]),
        )
        self.put("client.window_iqr_share", iqr_share(rates))
        self.put(
            "client.stolen_window_share",
            sum(1 for w in windows.items if w.stolen) / len(windows.items),
        )
        worst = max(w.stolen for w in steady)
        if worst:
            self.notes.append(
                f"fewer than {len(steady)} windows without steal: "
                f"the {len(steady)} least disturbed were used (up to {worst} ticks each)"
            )


def zipf_order(rng: np.random.Generator, keys: int, length: int) -> np.ndarray:
    """``length`` draws from Zipf(1.1) over ``keys`` ranks."""
    weights = 1.0 / np.arange(1, keys + 1) ** 1.1
    return rng.choice(keys, size=length, p=weights / weights.sum())


# ----------------------------------------------------------------------
# set-up, timed from outside
# ----------------------------------------------------------------------
_READY = re.compile(r"^ready$")


def probe_setups(plan: Plan) -> List[float]:
    """Launch → ready of fresh processes doing the workload's set-up.

    In-process workloads cannot repeat their own set-up (imports happen
    once), so each sample is a child that imports, builds the inputs,
    warms up, prints ``ready`` and is killed.
    """
    argv = ["perf", "setup", "--workload", plan.name, "--seed", str(plan.seed)]
    times = []
    for _ in range(plan.setup_samples):
        slow_before = plan.calib()
        with procs.python_child(argv, _READY, {plan.cores.bench}) as child:
            times.append(plan.at_reference(child.launch_s, slow_before))
    return times


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    workers: int  # 0 = one server process, else a router with this many workers
    keys: int
    zipf: bool = False  # Zipf(1.1) draws instead of round-robin
    rate: float = 0.0  # open loop at this offered rate; 0 = closed loop


SERVE = {
    "serve_hot": ServeSpec(workers=0, keys=64),
    "serve_paced": ServeSpec(workers=0, keys=4096, zipf=True, rate=PACED_RATE),
    "cluster_hot": ServeSpec(workers=2, keys=64),
    "cluster_wide": ServeSpec(workers=2, keys=20_000),
}

NULL_SERVER = ["perf.nullserver"]


def serve_argv(spec: ServeSpec, seed: int) -> List[str]:
    argv = [
        "repro", "serve",
        "--strategy", layers.STRATEGY["strategy"],
        "-A", str(layers.STRATEGY["spend_rate"]),
        "-C", str(layers.STRATEGY["capacity"]),
        "--period", repr(layers.PERIOD),
        "--shards", str(layers.TABLE["shards"]),
        "--max-keys", str(layers.TABLE["max_keys"]),
        "--host", "127.0.0.1", "--port", "0",
        "--duration", "600", "--seed", str(seed),
    ]  # fmt: skip
    return argv + (["--workers", str(spec.workers)] if spec.workers else [])


class Sut:
    """A launched server (or cluster) with the workload's connections open.

    ``setup_s`` runs from process launch to the first answered request
    on every connection — through a router that includes its lazily
    opened worker links — and is scaled to reference speed.
    """

    def __init__(self, argv: Sequence[str], spec: ServeSpec, plan: Plan):
        slow_before = plan.calib()
        started = perf_counter()
        # A lone server runs on the core calibration runs on; a cluster
        # spreads over every core the driver does not use.
        self.cores = plan.cores.sut if spec.workers else frozenset({plan.cores.bench})
        self.child = procs.python_child(argv, procs.ANNOUNCE, self.cores)
        self.connections: List[client.Connection] = []
        try:
            port = int(self.child.match.group(1))
            keys = client.key_names(spec.keys, plan.seed)
            rng = np.random.default_rng(plan.seed)
            for lane in range(CONNECTIONS):
                order = (
                    zipf_order(rng, spec.keys, 1 << 16)
                    if spec.zipf
                    else np.arange(lane, spec.keys, CONNECTIONS)
                )
                self.connections.append(client.Connection(port, keys, order))
            self.connected_at = perf_counter()
            client.closed_loop(self.connections, 1, 0.0)
            self.setup_s = plan.at_reference(perf_counter() - started, slow_before)
        except BaseException:
            self.close()
            raise
        self.members = [self.child.pid] + procs.descendants(self.child.pid)

    @property
    def decisions(self) -> int:
        return sum(c.decisions for c in self.connections)

    def cpu_seconds(self) -> List[float]:
        """CPU used so far by the launched process and each of its workers."""
        return [procs.cpu_seconds(pid) for pid in self.members]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.child.stop()

    def __enter__(self) -> "Sut":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def driver_ceiling(spec: ServeSpec, plan: Plan, windows: int = 3) -> float:
    """Decisions/s the closed-loop driver reaches against the null server."""
    with Sut(NULL_SERVER, spec, plan) as null:
        return max(
            decisions / elapsed
            for decisions, elapsed, _ in (
                client.closed_loop(null.connections, DEPTH, 0.15)
                for _ in range(windows)
            )
        )


def loadgen_ceiling(plan: Plan, requests: int = 150_000) -> float:
    """Decisions/s the repo's own ``run_loadgen`` reaches against the null server."""
    rate = 2_000_000.0
    with procs.python_child(NULL_SERVER, procs.ANNOUNCE, plan.cores.sut) as null:
        report = asyncio.run(
            run_loadgen(
                "127.0.0.1",
                int(null.match.group(1)),
                ArrivalSpec(pattern="uniform", rate=rate),
                duration=requests / rate,
                connections=4,
                keys=64,
                seed=plan.seed,
                protocol="binary",
                pipeline=2048,
            )
        )
    return report.summary["requests"] / report.elapsed


@dataclass
class Phase:
    """What the measured phase of a serve workload hands to the accounting."""

    latency_s: np.ndarray  # per request, pooled over the phase
    busy_s: float  # wall time the driver spent inside windows
    driver_cpu_s: float
    late_s: Optional[np.ndarray] = None  # open loop: send time - due time
    max_rate: float = 0.0  # open loop: highest rate within the limit


def closed_phase(sut: Sut, plan: Plan, outcome: Outcome) -> Phase:
    pooled: List[np.ndarray] = []
    driver_cpu = 0.0

    def window():
        nonlocal driver_cpu
        cpu_started = process_time()
        decisions, elapsed, latency = client.closed_loop(
            sut.connections, DEPTH, WINDOW_S
        )
        driver_cpu += process_time() - cpu_started
        pooled.append(latency)
        return decisions, elapsed, float(np.median(latency)) * 1e3

    windows = plan.windows(sut.cores | {plan.cores.driver})
    windows.measure(plan.seconds, window)
    outcome.put_windows(plan, windows)
    return Phase(np.concatenate(pooled), windows.elapsed, driver_cpu)


def _poisson_phase(sut: Sut, rng, rate: float, seconds: float):
    """One open-loop Poisson phase; ``(latency, late, offered seconds)``."""
    due = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds)))
    latency, late, _ = client.open_loop(sut.connections, due)
    return latency, late, float(due[-1])


def _within_limit(latency: np.ndarray) -> bool:
    """p95 within the limit over the phase and over its last third (no backlog)."""
    return all(
        percentile(np.sort(part), 95.0) <= LIMIT_S
        for part in (latency, latency[-len(latency) // 3 :])
    )


class PacedCalibrator:
    """The paced stream against the null server: a lone round trip with no admission work.

    A lone request's latency is mostly waking the server's core and
    crossing the loopback twice, and on this box that cost moves on its
    own: over five minutes it correlated 0.5 with the ``interp``
    calibrator window by window, and ten-run spreads of latency scaled
    by ``interp`` were 10-45 % in hours where the same latency divided
    by the null server's was 3-9 % apart. The null server runs on the
    server's core and sleeps between its windows.
    """

    ref_s = PACED_REF_S

    def __init__(self, null: Sut, rng: np.random.Generator, rate: float):
        self.null, self.rng, self.rate = null, rng, rate

    def __call__(self) -> float:
        latency, _, _ = _poisson_phase(self.null, self.rng, self.rate, PACED_WINDOW_S)
        return float(np.median(latency)) / self.ref_s


def paced_phase(
    sut: Sut, null: Sut, spec: ServeSpec, plan: Plan, outcome: Outcome
) -> Phase:
    """Windows of Poisson arrivals at the paced rate; latency runs from due time.

    The rate reported is the *goodput*: requests answered within the
    limit per offered second, so a request that is late, failed or never
    answered misses. Each window lies between two windows of the same
    stream against ``null`` and its latency is scaled by theirs; many
    short windows, so that a neighbour's burst spoils few of them.
    """
    rng = np.random.default_rng(plan.seed)
    plan = replace(plan, calib=PacedCalibrator(null, rng, spec.rate))
    seconds = plan.seconds
    if plan.trace:  # a traced run spends part of its time on the ladder
        seconds = max(1.0, seconds - len(LADDER_RATES) * LADDER_STEP_S)
    pooled: List[np.ndarray] = []
    lates: List[np.ndarray] = []
    driver_cpu = 0.0

    def window():
        nonlocal driver_cpu
        cpu_started = process_time()
        latency, late, offered_s = _poisson_phase(sut, rng, spec.rate, PACED_WINDOW_S)
        driver_cpu += process_time() - cpu_started
        pooled.append(latency)
        lates.append(late)
        within = float((latency <= LIMIT_S).sum())
        return within, offered_s, float(np.median(latency)) * 1e3

    windows = plan.windows(sut.cores | {plan.cores.driver})
    windows.measure(seconds, window)
    outcome.put_windows(plan, windows, saturated=False)
    latency = np.concatenate(pooled)
    return Phase(
        latency,
        windows.elapsed,
        driver_cpu,
        np.concatenate(lates),
        spec.rate if _within_limit(latency) else 0.0,
    )


def climb_ladder(sut: Sut, plan: Plan, phase: Phase) -> None:
    """Informational: the highest of a few fixed rates still within the limit."""
    rng = np.random.default_rng(plan.seed + 1)
    for rate in LADDER_RATES:
        if not phase.max_rate:
            return
        latency, _, _ = _poisson_phase(sut, rng, rate, LADDER_STEP_S)
        if not _within_limit(latency):
            return
        phase.max_rate = rate


def run_serve(plan: Plan) -> Outcome:
    spec = SERVE[plan.name]
    outcome = Outcome()
    argv = serve_argv(spec, plan.seed)
    setups = []
    for _ in range(plan.setup_samples - 1):
        with Sut(argv, spec, plan) as spare:
            setups.append(spare.setup_s)
    ceiling = driver_ceiling(spec, plan)
    with Sut(argv, spec, plan) as sut:
        setups.append(sut.setup_s)
        client.closed_loop(sut.connections, DEPTH, 0.3)  # touch every key once
        cpu_before = sut.cpu_seconds()
        measured_from = sut.decisions
        if spec.rate:
            with Sut(NULL_SERVER, spec, plan) as null:
                phase = paced_phase(sut, null, spec, plan, outcome)
        else:
            phase = closed_phase(sut, plan, outcome)
        cpu = [after - before for after, before in zip(sut.cpu_seconds(), cpu_before)]
        measured = sut.decisions - measured_from
        if spec.rate and plan.trace:
            climb_ladder(sut, plan, phase)
        stats = sut.connections[0].stats()
        span_s = perf_counter() - sut.connected_at
        admitted = sum(c.admitted for c in sut.connections)
        rss = sum(procs.peak_rss_mb(pid) for pid in sut.members)

    # -- correctness ------------------------------------------------------
    outcome.attempted = sut.decisions
    served = stats["admitted"] + stats["rejected"]
    outcome.check(
        served == sut.decisions,
        f"STATS counts {served} decisions, the client received {sut.decisions}",
    )
    outcome.check(
        stats["admitted"] == int(admitted.sum()),
        f"STATS admitted {stats['admitted']}, the client saw {int(admitted.sum())}",
    )
    if stats["evictions"] == 0:
        bound = math.ceil(span_s / layers.PERIOD) + layers.STRATEGY["capacity"]
        outcome.check(
            int(admitted.max()) <= bound,
            f"a key was admitted {int(admitted.max())} times in {span_s:.3f} s; "
            f"the §3.4 bound is {bound}",
        )
    raw = outcome.stats["client.raw_ops_per_s"].value
    if not spec.rate and raw > CEILING_SHARE * ceiling:
        # The ceiling is what the driver can do, and a probe the
        # neighbours disturbed reads low (545k/s once, against 4M/s):
        # ask again, at length, before failing the run.
        ceiling = max(ceiling, driver_ceiling(spec, plan, windows=8))
    if not spec.rate and raw > CEILING_SHARE * ceiling:
        outcome.failures.append(
            f"client_bound: {raw:,.0f}/s is over {CEILING_SHARE:.0%} of the "
            f"driver's {ceiling:,.0f}/s ceiling"
        )

    # -- metrics ----------------------------------------------------------
    outcome.put("setup_s", Stat.of(setups))
    outcome.put("peak_rss_mb", rss)
    ordered_ms = np.sort(phase.latency_s) * 1e3
    top = top_percentile(len(ordered_ms))
    outcome.put("client.latency_p99_ms", percentile(ordered_ms, 99.0))
    outcome.put("client.latency_top_ms", percentile(ordered_ms, top))
    outcome.put("client.latency_top_pct", top)
    outcome.put("client.latency_samples", len(ordered_ms))
    outcome.put(
        "client.within_limit_share", float((phase.latency_s <= LIMIT_S).mean())
    )
    if phase.late_s is not None:
        outcome.put(
            "client.late_p99_ms", percentile(np.sort(phase.late_s) * 1e3, 99.0)
        )
    outcome.put("client.max_rate_within_limit", phase.max_rate)
    outcome.put("client.ceiling_decisions_per_s", ceiling)
    outcome.put("client.cpu_us", phase.driver_cpu_s / measured * 1e6)
    outcome.put("serve.limiter.admit_share", stats["admitted"] / sut.decisions)
    outcome.put("serve.table.evictions", stats["evictions"])
    outcome.put("serve.server.cpu_us", sum(cpu) / measured * 1e6)
    outcome.put("serve.server.rss_mb", rss)
    outcome.put(
        "serve.cluster.busy_cores", (sum(cpu) + phase.driver_cpu_s) / phase.busy_s
    )
    if spec.workers:
        workers = cpu[1:]
        outcome.put("serve.cluster.router_cpu_us", cpu[0] / measured * 1e6)
        outcome.put("serve.cluster.worker_cpu_us", sum(workers) / measured * 1e6)
        outcome.put(
            "serve.cluster.worker_imbalance",
            max(workers) * len(workers) / sum(workers),
        )
        outcome.put("serve.cluster.spawn_s", sut.child.launch_s)
    else:
        busy = cpu[0] / phase.busy_s
        outcome.put("serve.server.busy_share", busy)
        if not spec.rate and busy < 0.9:
            outcome.notes.append(
                f"not saturated: the server was busy {busy:.0%} of the windows"
            )
    return outcome


# ----------------------------------------------------------------------
# embed_scalar
# ----------------------------------------------------------------------
#: Zipf(1.1) over 300k keys touches ~104k distinct keys per cycle of the
#: sequence, so a 65 536-key table evicts throughout (over the issue's
#: 100k keys a cycle touches 66k: no eviction within a 10 s run)
EMBED_KEYS = 300_000
EMBED_CHUNK = 1000


def embed_setup(seed: int):
    """The limiter with a full table, and a cyclic Zipf key sequence."""
    limiter = TokenAccountLimiter(
        layers.STRATEGY["strategy"],
        spend_rate=layers.STRATEGY["spend_rate"],
        capacity=layers.STRATEGY["capacity"],
        period=layers.PERIOD,
        seed=seed,
        **layers.TABLE,
    )
    keys = client.key_names(EMBED_KEYS, seed)
    order = zipf_order(np.random.default_rng(seed), EMBED_KEYS, 1000 * EMBED_CHUNK)
    sequence = [keys[index] for index in order]
    # Fill the table with the coldest keys, oldest first, so the measured
    # phase evicts from its first call.
    for key in keys[-layers.TABLE["max_keys"] :]:
        limiter.try_acquire(key)
    return limiter, sequence


def run_embed(plan: Plan) -> Outcome:
    outcome = Outcome()
    setups = probe_setups(plan)
    limiter, sequence = embed_setup(plan.seed)
    acquire = limiter.try_acquire
    position = 0
    driver_cpu = 0.0

    def window():
        nonlocal position, driver_cpu
        done = 0
        chunks: List[float] = []
        cpu_started = process_time()
        started = now = perf_counter()
        deadline = started + WINDOW_S
        while now < deadline:
            chunk_started = now
            for key in sequence[position : position + EMBED_CHUNK]:
                acquire(key)
            now = perf_counter()
            chunks.append(now - chunk_started)
            position = (position + EMBED_CHUNK) % len(sequence)
            done += EMBED_CHUNK
        driver_cpu += process_time() - cpu_started
        # per-call latency: the window's median chunk, spread over its calls
        return done, now - started, float(np.median(chunks)) / EMBED_CHUNK * 1e3

    windows = plan.windows({plan.cores.bench}).measure(plan.seconds, window)
    outcome.put_windows(plan, windows)
    stats = limiter.stats()
    calls = layers.TABLE["max_keys"] + int(windows.ops)
    outcome.attempted = calls
    served = stats["admitted"] + stats["rejected"]
    outcome.check(
        served == calls, f"the limiter counts {served} decisions for {calls} calls"
    )
    outcome.check(stats["evictions"] > 0, "the tail never evicted: table not full")
    outcome.put("setup_s", Stat.of(setups))
    outcome.put("peak_rss_mb", procs.peak_rss_mb())
    outcome.put("client.cpu_us", driver_cpu / windows.ops * 1e6)
    outcome.put("serve.limiter.admit_share", stats["admitted"] / calls)
    outcome.put("serve.table.evictions", stats["evictions"])
    return outcome


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def sim_cells(backend: str, seed: int) -> List[ExperimentConfig]:
    """One round: every strategy once, on one seed."""
    return [
        ExperimentConfig(
            app="push-gossip",
            n=SIM_NODES[backend],
            periods=SIM_PERIODS,
            seed=seed,
            backend=backend,
            **strategy,
        )
        for strategy in SIM_STRATEGIES
    ]


def sim_setup(backend: str, seed: int) -> None:
    """Imports are done by now; build one overlay and run one warm-up cell."""
    execute_backend(sim_cells(backend, seed)[-1])


def _fingerprint(result) -> tuple:
    return result.events_processed, result.data_messages, list(result.metric)


def run_sim(plan: Plan) -> Outcome:
    """Rounds of four cells (one per strategy), each round run twice and compared.

    A window is a round, so every window holds the same mix of work.
    ``sim_event`` goes through ``SuiteRunner`` with a fresh store (the
    first pass of a round persists, the repeat runs storeless) and ends
    with a warm replay that must simulate nothing; ``sim_vectorized``
    calls ``execute_backend`` directly. A traced run records one
    ``backends.<backend>.cell`` span per cell, under an
    ``experiments.suite.dispatch`` span where a suite ran it.
    """
    backend = plan.name.split("_", 1)[1]
    recorder = plan.recorder
    outcome = Outcome()
    setups = probe_setups(plan)
    sim_setup(backend, plan.seed)
    # inside the checkout, like everything the benchmark writes
    with tempfile.TemporaryDirectory(prefix="perf-store-", dir=ROOT) as root:
        store = ResultStore(Path(root))
        suites: List[ExperimentSuite] = []
        first_pass: List[List[tuple]] = []
        cell_s: List[float] = []
        dispatch_ms: List[float] = []
        turn = 0

        def cell(config: ExperimentConfig):
            with recorder.span(f"backends.{backend}.cell", turn):
                return execute_backend(config)

        def window():
            nonlocal turn
            turn += 1
            pair, repeat = divmod(turn - 1, 2)
            if not repeat:
                cells = sim_cells(backend, plan.seed * 1000 + pair)
                suites.append(ExperimentSuite.from_configs(f"{plan.name}-{pair}", cells))
            suite = suites[pair]
            started = perf_counter()
            if backend == "event":
                runner = SuiteRunner(
                    workers=1, task=cell, store=None if repeat else store
                )
                with recorder.span("experiments.suite.dispatch", turn, len(suite)):
                    results = runner.run(suite).results()
            else:
                results = [cell(config) for config in suite]
            elapsed = perf_counter() - started
            in_cells = [result.elapsed for result in results]
            cell_s.extend(in_cells)
            dispatch_ms.append((elapsed - sum(in_cells)) / len(suite) * 1e3)
            prints = [_fingerprint(result) for result in results]
            if repeat:
                outcome.check(
                    prints == first_pass[pair],
                    f"round {pair} gave different results when run again",
                )
            else:
                first_pass.append(prints)
            outcome.attempted += len(suite)
            events = sum(result.events_processed for result in results)
            return events, elapsed, elapsed / len(suite) * 1e3

        windows = plan.windows({plan.cores.bench}).measure(plan.seconds, window)
        outcome.put_windows(plan, windows)
        if backend == "event":
            for pair, suite in enumerate(suites):
                replay = SuiteRunner(workers=1, task=cell, store=store).run(suite)
                outcome.check(
                    replay.simulated_cells == 0,
                    f"warm replay of round {pair} simulated "
                    f"{replay.simulated_cells} cells",
                )
                outcome.check(
                    [_fingerprint(r) for r in replay.results()] == first_pass[pair],
                    f"warm replay of round {pair} differs from its first run",
                )
            if plan.trace:
                # The one place the benchmark wants every core at once.
                os.sched_setaffinity(0, plan.cores.sut | {plan.cores.driver})
                both = SuiteRunner(workers=2).run(suites[0])
                os.sched_setaffinity(0, {plan.cores.bench})
                outcome.put(
                    "experiments.suite.parallel_efficiency", both.parallel_efficiency
                )

    outcome.put("setup_s", Stat.of(setups))
    outcome.put("peak_rss_mb", procs.peak_rss_mb())
    outcome.put(f"backends.{backend}.cell_s", Stat.of(cell_s))
    outcome.put("experiments.suite.dispatch_ms", Stat.of(dispatch_ms))
    if backend == "vectorized":
        outcome.put(
            "backends.vectorized.slot_ms",
            Stat.of([seconds / SIM_PERIODS * 1e3 for seconds in cell_s]),
        )
    # Simulated statistics of one fixed cell (seed 1 whatever --seed says):
    # they must repeat exactly across runs and across any commit that
    # claims only a speed-up.
    reference = execute_backend(sim_cells(backend, 1)[-1])
    outcome.put("sim.events_processed", reference.events_processed)
    outcome.put(
        "sim.messages_per_node", reference.messages_per_node_per_period * SIM_PERIODS
    )
    return outcome


# ----------------------------------------------------------------------
RUNNERS: Dict[str, Callable[[Plan], Outcome]] = {
    "embed_scalar": run_embed,
    "serve_hot": run_serve,
    "serve_paced": run_serve,
    "cluster_hot": run_serve,
    "cluster_wide": run_serve,
    "sim_event": run_sim,
    "sim_vectorized": run_sim,
}

#: what a set-up probe child runs for the in-process workloads
SETUPS: Dict[str, Callable[[int], object]] = {
    "embed_scalar": embed_setup,
    "sim_event": partial(sim_setup, "event"),
    "sim_vectorized": partial(sim_setup, "vectorized"),
}
