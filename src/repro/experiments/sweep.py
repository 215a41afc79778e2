"""Parameter-space exploration (§4.2).

"The parameter space included all the combinations defined by
A = 1, 2, 5, 10, 15, 20, 40 and C − A = 0, 1, 2, 5, 10, 15, 20, 40, 80
(note that we have to have A ≤ C)."

:func:`parameter_grid` reproduces that grid; :func:`run_sweep` evaluates
a figure-of-merit for every cell so that the bench can print the sweep
table the paper's exploration is based on. At CI scale a thinned grid is
used (the full grid is 63 cells × three strategies).

Cells are independent simulations, so :func:`run_sweep` builds an
:class:`~repro.experiments.suite.ExperimentSuite` and fans them across
worker processes (``REPRO_WORKERS`` / ``workers=``); results are
identical to the serial loop for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.scale import ScalePreset, current_scale
from repro.experiments.suite import ExperimentSuite, run_suite
from repro.registry import strategies
from repro.scenarios import ScenarioSpec

#: the paper's grid (§4.2)
PAPER_A_VALUES: Tuple[int, ...] = (1, 2, 5, 10, 15, 20, 40)
PAPER_C_MINUS_A: Tuple[int, ...] = (0, 1, 2, 5, 10, 15, 20, 40, 80)


def sweepable_strategies() -> Tuple[str, ...]:
    """Registered strategies the (A, C) grid applies to.

    Derived from the registry rather than hard-coded: anything with a
    ``capacity`` parameter can be swept over C, and strategies that also
    declare ``spend_rate`` sweep the full grid. New registered strategies
    show up in ``repro sweep`` / ``repro suite`` automatically.
    """
    return tuple(
        registration.name
        for registration in strategies
        if "capacity" in registration.param_names
    )


def _takes_spend_rate(strategy: str) -> bool:
    return "spend_rate" in strategies.get(strategy).param_names


#: thinned grid used at CI scale
QUICK_A_VALUES: Tuple[int, ...] = (1, 5, 10, 20)
QUICK_C_MINUS_A: Tuple[int, ...] = (0, 5, 10)


def parameter_grid(
    a_values: Sequence[int] = PAPER_A_VALUES,
    c_minus_a: Sequence[int] = PAPER_C_MINUS_A,
) -> List[Tuple[int, int]]:
    """All (A, C) combinations of the paper's sweep, with A <= C."""
    grid = []
    for a in a_values:
        for gap in c_minus_a:
            grid.append((a, a + gap))
    return grid


@dataclass(frozen=True)
class SweepCell:
    """One grid cell's outcome."""

    strategy: str
    spend_rate: int
    capacity: int
    #: the application metric at the end of the run
    final_metric: float
    #: data messages per node per period (rate-limit sanity)
    message_rate: float

    @property
    def label(self) -> str:
        return f"{self.strategy}(A={self.spend_rate}, C={self.capacity})"


def sweep_suite(
    app: str,
    strategy: str,
    scale: Optional[ScalePreset] = None,
    seed: int = 1,
    a_values: Optional[Sequence[int]] = None,
    c_minus_a: Optional[Sequence[int]] = None,
    scenario: str = "failure-free",
) -> Tuple[ExperimentSuite, List[Tuple[int, int]]]:
    """The declarative suite behind :func:`run_sweep`.

    Returns the suite plus the (A, C) coordinates of each cell, in cell
    order, so callers can map results back to grid positions.
    """
    scale = scale or current_scale()
    if a_values is None:
        a_values = PAPER_A_VALUES if scale.name == "paper" else QUICK_A_VALUES
    if c_minus_a is None:
        c_minus_a = PAPER_C_MINUS_A if scale.name == "paper" else QUICK_C_MINUS_A
    takes_spend_rate = _takes_spend_rate(strategy)
    coordinates: List[Tuple[int, int]] = []
    configs: List[ScenarioSpec] = []
    for spend_rate, capacity in parameter_grid(a_values, c_minus_a):
        if not takes_spend_rate and spend_rate != a_values[0]:
            continue  # strategies without an A parameter sweep C only
        coordinates.append((spend_rate, capacity))
        configs.append(
            ExperimentConfig(
                app=app,
                strategy=strategy,
                spend_rate=spend_rate if takes_spend_rate else None,
                capacity=capacity,
                n=scale.n,
                periods=scale.periods,
                scenario=scenario,
                seed=seed,
            )
        )
    suite = ExperimentSuite.from_configs(
        f"sweep-{app}-{strategy}",
        configs,
        description=f"§4.2 (A, C) exploration: {app} / {strategy} / {scenario}",
    )
    return suite, coordinates


def run_sweep(
    app: str,
    strategy: str,
    scale: Optional[ScalePreset] = None,
    seed: int = 1,
    a_values: Optional[Sequence[int]] = None,
    c_minus_a: Optional[Sequence[int]] = None,
    scenario: str = "failure-free",
    workers: Optional[int] = None,
    store=None,
    offline: bool = False,
) -> List[SweepCell]:
    """Evaluate one strategy over the (A, C) grid for one application.

    The figure of merit is the final value of the application's metric
    (relative speed for gossip learning — higher is better; lag for push
    gossip and angle for chaotic iteration — lower is better). Cells run
    in parallel (``workers`` / ``REPRO_WORKERS``); the returned list is
    in grid order regardless of worker scheduling.
    """
    suite, coordinates = sweep_suite(
        app, strategy, scale, seed, a_values, c_minus_a, scenario
    )
    results = run_suite(suite, workers=workers, store=store, offline=offline).results()
    return cells_from_results(strategy, coordinates, results)


def cells_from_results(
    strategy: str,
    coordinates: Sequence[Tuple[int, int]],
    results: Sequence,
) -> List[SweepCell]:
    """Zip grid coordinates with experiment results into sweep cells.

    The single place that defines the sweep's figure of merit (the final
    metric value) — shared by :func:`run_sweep` and the CLI's ``suite``
    command so both always report the same numbers for the same grid.
    """
    return [
        SweepCell(
            strategy=strategy,
            spend_rate=spend_rate,
            capacity=capacity,
            final_metric=result.metric.final(),
            message_rate=result.messages_per_node_per_period,
        )
        for (spend_rate, capacity), result in zip(coordinates, results)
    ]


def format_sweep_table(cells: Sequence[SweepCell], higher_is_better: bool) -> str:
    """Render sweep cells as an A x C matrix with the best cell marked."""
    if not cells:
        return "(empty sweep)"
    a_values = sorted({cell.spend_rate for cell in cells})
    c_values = sorted({cell.capacity for cell in cells})
    lookup: Dict[Tuple[int, int], SweepCell] = {
        (cell.spend_rate, cell.capacity): cell for cell in cells
    }
    best = (max if higher_is_better else min)(cells, key=lambda cell: cell.final_metric)
    corner = "A \\ C"
    header = f"{corner:>8} " + " ".join(f"{c:>10}" for c in c_values)
    lines = [header, "-" * len(header)]
    for a in a_values:
        row = [f"{a:>8} "]
        for c in c_values:
            cell = lookup.get((a, c))
            if cell is None:
                row.append(f"{'-':>10}")
            else:
                marker = "*" if cell is best else " "
                row.append(f"{cell.final_metric:>9.4g}{marker}")
        lines.append(" ".join(row))
    lines.append(f"(* best: {best.label} -> {best.final_metric:.4g})")
    return "\n".join(lines)
