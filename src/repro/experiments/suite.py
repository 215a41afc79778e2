"""Parallel orchestration of experiment suites.

The paper's evaluation is a large fan of *independent* simulation runs:
a 63-cell (A, C) grid per strategy and application (§4.2), ten-seed
repetition fans behind every figure curve, and five figures. Each cell
is a self-contained :class:`~repro.scenarios.ScenarioSpec` whose seed
fully determines its outcome — an embarrassingly parallel
workload. This module turns such fans into first-class objects:

* :class:`ExperimentSuite` — a named, ordered bundle of configs with
  builders for grids (:meth:`ExperimentSuite.from_grid`) and repetition
  fans (:meth:`ExperimentSuite.repeated`);
* :class:`SuiteRunner` — executes the cells, in-process or across a
  ``concurrent.futures.ProcessPoolExecutor``, with worker-count control
  (the ``REPRO_WORKERS`` environment variable, default
  ``os.cpu_count()``), progress/ETA callbacks, and fail-fast error
  propagation;
* :class:`SuiteResult` — per-cell results *in suite order* plus
  wall-clock vs. virtual-time throughput aggregates.

Determinism contract: cell results depend only on each cell's config
(never on scheduling), and :class:`SuiteResult` orders cells by suite
index — so the same suite produces identical results for any worker
count, including the serial fallback used where ``fork`` is
unavailable.
"""

from __future__ import annotations

import itertools
import multiprocessing
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.runner import average_results, replicate_seeds, run_experiment
from repro.experiments.scale import worker_count
from repro.scenarios import ScenarioSpec
from repro.store import ResultStore, StoreMissError

#: signature of a cell task: one config in, one (picklable) result out.
#: Cells are :class:`ScenarioSpec` — frozen, picklable and seed-complete.
CellTask = Callable[[ScenarioSpec], Any]

#: cells submitted to the pool per worker at once: a bounded queue keeps
#: memory flat on huge suites and still overlaps scheduling with execution
CELLS_IN_FLIGHT_PER_WORKER = 2


# ----------------------------------------------------------------------
# The declarative bundle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSuite:
    """A named, ordered bundle of experiment configurations.

    The order of ``configs`` is the order of the cells in the
    :class:`SuiteResult`; :meth:`repeated` and :meth:`SuiteResult.averaged`
    rely on it to keep the seed variants of one cell consecutive.
    """

    name: str
    configs: Tuple[ScenarioSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError(f"suite {self.name!r} has no configs")

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.configs)

    # ------------------------------------------------------------------
    @classmethod
    def from_configs(
        cls,
        name: str,
        configs: Iterable[ScenarioSpec],
        description: str = "",
    ) -> "ExperimentSuite":
        """Bundle an explicit config sequence into a named suite."""
        return cls(name=name, configs=tuple(configs), description=description)

    @classmethod
    def from_grid(
        cls,
        name: str,
        base: ScenarioSpec,
        description: str = "",
        **axes: Sequence[Any],
    ) -> "ExperimentSuite":
        """Cartesian product of config-field axes over a base config.

        ``axes`` maps spec field names — or parameter names of the base's
        components, routed by :meth:`ScenarioSpec.with_overrides` — to
        value sequences; the grid is enumerated in row-major order with the
        *last* keyword varying fastest (like nested loops)::

            suite = ExperimentSuite.from_grid(
                "ac-grid", base, spend_rate=(1, 5), capacity=(10, 20)
            )
        """
        if not axes:
            raise ValueError("from_grid needs at least one axis")
        names = list(axes)
        configs = [
            base.with_overrides(**dict(zip(names, combo)))
            for combo in itertools.product(*(axes[k] for k in names))
        ]
        return cls(name=name, configs=tuple(configs), description=description)

    def repeated(self, repeats: int) -> "ExperimentSuite":
        """Fan every cell into ``repeats`` deterministic seed variants.

        Cell ``i`` of the original suite becomes cells
        ``[i * repeats, (i + 1) * repeats)`` with the seeds of
        :func:`repro.experiments.runner.replicate_seeds` — the same seeds
        :func:`repro.experiments.runner.run_averaged` uses, so averaging
        the fan reproduces the serial path bit-for-bit.
        """
        if repeats == 1:
            return self
        fanned = [
            variant
            for config in self.configs
            for variant in replicate_seeds(config, repeats)
        ]
        return ExperimentSuite(
            name=self.name,
            configs=tuple(fanned),
            description=self.description,
        )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One executed cell: its config, payload, and worker-side timing."""

    index: int
    config: ScenarioSpec
    #: whatever the task returned; :class:`ExperimentResult` by default
    result: Any
    #: wall-clock seconds the cell took inside its worker (0.0 when the
    #: result came out of the store instead of a simulation)
    wall_seconds: float
    #: whether the result was served from the result store (cache hit)
    cached: bool = False

    @property
    def events_processed(self) -> int:
        """Engine events the cell's simulation processed."""
        return getattr(self.result, "events_processed", 0)


@dataclass
class SuiteResult:
    """All cells of one suite run, in suite order, plus aggregates."""

    suite_name: str
    cells: List[CellResult]
    #: worker processes used (1 = in-process serial execution)
    workers: int
    #: wall-clock seconds for the whole suite (orchestrator-side)
    wall_seconds: float
    #: why execution fell back to serial, if it did (e.g. "no-fork")
    serial_fallback_reason: Optional[str] = None

    def results(self) -> List[Any]:
        """The per-cell payloads, in suite order."""
        return [cell.result for cell in self.cells]

    def averaged(self, repeats: int) -> List[Any]:
        """Merge each run of ``repeats`` consecutive cells into one result.

        The inverse of :meth:`ExperimentSuite.repeated`: one averaged
        :class:`ExperimentResult` per cell of the original suite.
        """
        results = self.results()
        return [
            average_results(results[start : start + repeats])
            for start in range(0, len(results), repeats)
        ]

    # ------------------------------------------------------------------
    # Throughput accounting
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        """Engine events processed across all cells."""
        return sum(cell.events_processed for cell in self.cells)

    @property
    def total_cell_seconds(self) -> float:
        """Sum of per-cell wall times (the serial-equivalent cost)."""
        return sum(cell.wall_seconds for cell in self.cells)

    @property
    def virtual_seconds(self) -> float:
        """Total simulated virtual time across all cells."""
        return sum(cell.config.horizon for cell in self.cells)

    @property
    def events_per_second(self) -> float:
        """Engine events per wall-clock second, across workers."""
        return self.total_events / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cells_per_second(self) -> float:
        """Finished cells (cached or simulated) per wall-clock second."""
        return len(self.cells) / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cache_hits(self) -> int:
        """How many cells were served from the result store."""
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def simulated_cells(self) -> int:
        """How many cells were actually executed (store misses)."""
        return len(self.cells) - self.cache_hits

    @property
    def parallel_efficiency(self) -> float:
        """Aggregate cell time over (wall time x workers); 1.0 is ideal."""
        denominator = self.wall_seconds * self.workers
        return self.total_cell_seconds / denominator if denominator else 0.0

    def summary(self) -> str:
        """One-line human-readable digest."""
        cached = f", {self.cache_hits} cached" if self.cache_hits else ""
        return (
            f"{self.suite_name}: {len(self.cells)} cells{cached} in "
            f"{self.wall_seconds:.2f}s with {self.workers} worker(s) — "
            f"{self.events_per_second:,.0f} events/s, "
            f"{self.cells_per_second:.2f} cells/s, "
            f"efficiency {self.parallel_efficiency:.0%}"
        )


class SuiteExecutionError(RuntimeError):
    """A cell failed; carries the cell's index and config.

    Raised by :meth:`SuiteRunner.run` with the original exception as
    ``__cause__`` — identically for serial and pooled execution, so
    callers handle worker failures the same way on every platform.
    """

    def __init__(self, index: int, config: ScenarioSpec, cause: BaseException):
        super().__init__(
            f"suite cell {index} ({config.label()}, seed={config.seed}) "
            f"failed: {cause!r}"
        )
        self.index = index
        self.config = config


@dataclass
class SuiteProgress:
    """A progress snapshot passed to the runner's callback per cell."""

    suite_name: str
    done: int
    total: int
    #: index of the cell that just finished
    index: int
    #: orchestrator wall-clock seconds since the suite started
    elapsed: float

    @property
    def eta_seconds(self) -> float:
        """Remaining-time estimate from the mean cell throughput so far."""
        if not self.done:
            return float("inf")
        return self.elapsed / self.done * (self.total - self.done)

    def render(self) -> str:
        """One status line: done/total cells, elapsed seconds, ETA."""
        eta = self.eta_seconds
        eta_text = "?" if eta == float("inf") else f"{eta:.0f}s"
        return (
            f"[{self.suite_name}] {self.done}/{self.total} cells "
            f"({self.elapsed:.1f}s elapsed, eta {eta_text})"
        )


def print_progress(progress: SuiteProgress) -> None:
    """A ready-made progress callback that writes to stderr."""
    print(progress.render(), file=sys.stderr)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _execute_cell(
    task: CellTask, index: int, config: ScenarioSpec
) -> Tuple[int, Any, float]:
    """Worker-side wrapper: run one cell and time it."""
    started = time.perf_counter()
    result = task(config)
    return index, result, time.perf_counter() - started


def _fork_available() -> bool:
    """True when worker processes can be safely forked.

    The pool path requires real ``fork``: ``spawn`` (Windows, macOS
    default) would re-import the repro package in a fresh interpreter
    that may not have it on ``sys.path`` when the caller relies on the
    ``PYTHONPATH=src`` shim. Forking is only trusted where it is the
    platform default (Linux) — macOS offers ``fork`` but CPython made
    ``spawn`` its default there because forked children can abort
    inside system frameworks — so everything else degrades to serial.
    """
    return (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    )


class SuiteRunner:
    """Execute an :class:`ExperimentSuite`, serially or across processes.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` resolves via :func:`worker_count`
        (``REPRO_WORKERS`` or the CPU count). 1 runs in-process.
    task:
        The per-cell function, ``config -> result``. Defaults to
        :func:`repro.experiments.runner.run_experiment`. Must be a
        module-level callable (pickled to workers).
    progress:
        Optional callback receiving a :class:`SuiteProgress` after every
        finished cell (see :func:`print_progress`).
    store:
        Optional :class:`~repro.store.ResultStore`. Before dispatching a
        cell the runner checks the store and serves hits without
        simulating; every miss is persisted on completion, so a killed
        suite resumes from the cells it already finished (and a warm
        rerun simulates nothing at all).
    offline:
        Require every cell to come from ``store``; any miss raises
        :class:`~repro.store.StoreMissError` before anything executes.
        This is how ``repro report`` guarantees zero simulation.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        task: CellTask = run_experiment,
        progress: Optional[Callable[[SuiteProgress], None]] = None,
        store: Optional[ResultStore] = None,
        offline: bool = False,
    ):
        self.workers = worker_count(workers)
        self.task = task
        self.progress = progress
        if offline and store is None:
            raise ValueError("offline=True requires a result store")
        self.store = store
        self.offline = offline

    # ------------------------------------------------------------------
    def run(self, suite: ExperimentSuite) -> SuiteResult:
        """Run every cell; raise :class:`SuiteExecutionError` on failure.

        Results are assembled in suite order regardless of completion
        order. On failure the lowest-indexed failing cell wins and
        remaining queued cells are cancelled (in-flight cells finish).
        With a store attached, cached cells are served first and only
        the misses execute (each persisted the moment it completes).
        """
        started = time.perf_counter()
        workers = self.workers
        fallback_reason = None
        cached, pending = self._partition(suite)
        if self.offline and pending:
            raise StoreMissError(
                suite.name, [config for _, config in pending], self.store.root
            )
        if workers > 1 and not _fork_available():
            workers = 1
            fallback_reason = "no-fork"
        if not pending:
            executed: Dict[int, CellResult] = {}
        elif workers > 1:
            executed = self._run_pooled(suite, pending, len(cached), workers)
        else:
            executed = self._run_serial(suite, pending, len(cached))
        executed.update(cached)
        return SuiteResult(
            suite_name=suite.name,
            cells=[executed[i] for i in sorted(executed)],
            workers=workers,
            wall_seconds=time.perf_counter() - started,
            serial_fallback_reason=fallback_reason,
        )

    # ------------------------------------------------------------------
    def _partition(
        self, suite: ExperimentSuite
    ) -> Tuple[Dict[int, CellResult], List[Tuple[int, ScenarioSpec]]]:
        """Split the suite into store hits and cells that must execute."""
        cached: Dict[int, CellResult] = {}
        pending: List[Tuple[int, ScenarioSpec]] = []
        if self.store is None:
            return cached, list(enumerate(suite))
        for index, config in enumerate(suite):
            hit = self.store.get(config, task=self.task)
            if hit is not None:
                cached[index] = CellResult(
                    index=index,
                    config=config,
                    result=hit,
                    wall_seconds=0.0,
                    cached=True,
                )
            else:
                pending.append((index, config))
        return cached, pending

    def _persist(self, config: ScenarioSpec, result: Any) -> None:
        """Write one finished cell to the store (when one is attached)."""
        if self.store is not None:
            self.store.put(config, result, task=self.task)

    def _report(self, suite: ExperimentSuite, done: int, index: int, t0: float) -> None:
        if self.progress is None:
            return
        self.progress(
            SuiteProgress(
                suite_name=suite.name,
                done=done,
                total=len(suite),
                index=index,
                elapsed=time.perf_counter() - t0,
            )
        )

    def _run_serial(
        self,
        suite: ExperimentSuite,
        pending: List[Tuple[int, ScenarioSpec]],
        base_done: int,
    ) -> Dict[int, CellResult]:
        t0 = time.perf_counter()
        cells: Dict[int, CellResult] = {}
        for index, config in pending:
            try:
                _, result, wall = _execute_cell(self.task, index, config)
            except Exception as error:
                raise SuiteExecutionError(index, config, error) from error
            self._persist(config, result)
            cells[index] = CellResult(
                index=index, config=config, result=result, wall_seconds=wall
            )
            self._report(suite, base_done + len(cells), index, t0)
        return cells

    def _run_pooled(
        self,
        suite: ExperimentSuite,
        pending: List[Tuple[int, ScenarioSpec]],
        base_done: int,
        workers: int,
    ) -> Dict[int, CellResult]:
        t0 = time.perf_counter()
        by_index: Dict[int, CellResult] = {}
        window = workers * CELLS_IN_FLIGHT_PER_WORKER
        queue = iter(pending)
        failure: Optional[SuiteExecutionError] = None
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            in_flight = {}
            for index, config in itertools.islice(queue, window):
                in_flight[pool.submit(_execute_cell, self.task, index, config)] = (
                    index,
                    config,
                )
            while in_flight:
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in finished:
                    index, config = in_flight.pop(future)
                    try:
                        cell_index, result, wall = future.result()
                    except Exception as error:
                        candidate = SuiteExecutionError(index, config, error)
                        candidate.__cause__ = error
                        if failure is None or index < failure.index:
                            failure = candidate
                        continue
                    self._persist(config, result)
                    by_index[cell_index] = CellResult(
                        index=cell_index,
                        config=config,
                        result=result,
                        wall_seconds=wall,
                    )
                    self._report(suite, base_done + len(by_index), cell_index, t0)
                if failure is None:
                    for index, config in itertools.islice(
                        queue, window - len(in_flight)
                    ):
                        in_flight[
                            pool.submit(_execute_cell, self.task, index, config)
                        ] = (index, config)
        if failure is not None:
            raise failure
        return by_index


# ----------------------------------------------------------------------
# Convenience entry point
# ----------------------------------------------------------------------
def run_suite(
    suite: ExperimentSuite,
    workers: Optional[int] = None,
    progress: Optional[Callable[[SuiteProgress], None]] = None,
    store: Optional[ResultStore] = None,
    offline: bool = False,
) -> SuiteResult:
    """Build a :class:`SuiteRunner` and run ``suite`` (one-call helper)."""
    return SuiteRunner(
        workers=workers, progress=progress, store=store, offline=offline
    ).run(suite)
