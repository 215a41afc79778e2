"""Experiment harness: scenario assembly, suites, figures and reports.

* :mod:`repro.experiments.config` — ``ExperimentConfig``, the
  flat-keyword constructor of :class:`~repro.scenarios.ScenarioSpec`
  with the paper's defaults (§4.1).
* :mod:`repro.experiments.runner` — builds a configured simulation
  (overlay, nodes, churn, injectors, collectors) and runs it to the
  horizon, returning time series and accounting.
* :mod:`repro.experiments.suite` — declarative experiment suites and the
  :class:`~repro.experiments.suite.SuiteRunner` that owns workers
  (``REPRO_WORKERS``), result store, offline replay and progress.
* :mod:`repro.experiments.scale` — CI / medium / paper scale presets
  selected via the ``REPRO_SCALE`` environment variable.
* :mod:`repro.experiments.figures` — the per-figure harnesses (Figures
  1–5) that the benchmark suite calls; each takes a ``runner=``.
* :mod:`repro.experiments.sweep` — the §4.2 (A, C) grid and its table.
* :mod:`repro.experiments.report` — ASCII rendering of series tables and
  the speedup-versus-proactive summaries.
"""

from repro.experiments.config import PAPER, ExperimentConfig
from repro.experiments.runner import (
    Experiment,
    ExperimentResult,
    average_results,
    replicate_seeds,
    run_averaged,
    run_experiment,
)
from repro.experiments.scale import ScalePreset, current_scale, worker_count
from repro.experiments.suite import (
    CellResult,
    ExperimentSuite,
    SuiteExecutionError,
    SuiteResult,
    SuiteRunner,
    run_suite,
)

__all__ = [
    "CellResult",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSuite",
    "PAPER",
    "ScalePreset",
    "SuiteExecutionError",
    "SuiteResult",
    "SuiteRunner",
    "average_results",
    "current_scale",
    "replicate_seeds",
    "run_averaged",
    "run_experiment",
    "run_suite",
    "worker_count",
]
