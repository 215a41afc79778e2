"""Parameter-space exploration (§4.2): the grid and its table.

"The parameter space included all the combinations defined by
A = 1, 2, 5, 10, 15, 20, 40 and C − A = 0, 1, 2, 5, 10, 15, 20, 40, 80
(note that we have to have A ≤ C)."

:func:`parameter_grid` reproduces that grid, :func:`sweep_suite` lays it
out as one :class:`~repro.experiments.suite.ExperimentSuite` over any
number of strategies, and :func:`format_sweep_table` renders one
strategy's results as the A x C matrix the paper's exploration is based
on. At CI scale a thinned grid is used (the full grid is 63 cells ×
three strategies). Running the suite is a
:class:`~repro.experiments.suite.SuiteRunner`'s job; every result
carries the spec it ran from, so its strategy, A and C are read off it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult
from repro.experiments.scale import ScalePreset, current_scale
from repro.experiments.suite import ExperimentSuite
from repro.registry import strategies

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


def sweep_suite(
    app: str,
    strategy_names: Sequence[str],
    scale: Optional[ScalePreset] = None,
    seed: int = 1,
    a_values: Optional[Sequence[int]] = None,
    c_minus_a: Optional[Sequence[int]] = None,
    scenario: str = "failure-free",
) -> ExperimentSuite:
    """The (A, C) grid of every named strategy as one strategy-major suite.

    A strategy without an A parameter sweeps C only: it keeps the grid's
    first row, and its specs carry no ``spend_rate``. A name given twice
    contributes its cells once.
    """
    scale = scale or current_scale()
    if a_values is None:
        a_values = PAPER_A_VALUES if scale.name == "paper" else QUICK_A_VALUES
    if c_minus_a is None:
        c_minus_a = PAPER_C_MINUS_A if scale.name == "paper" else QUICK_C_MINUS_A
    grid = parameter_grid(a_values, c_minus_a)
    configs = []
    for strategy in dict.fromkeys(strategy_names):
        cells = grid
        if "spend_rate" not in strategies.get(strategy).param_names:
            cells = [(a, c) for a, c in grid if a == a_values[0]]
        configs += [
            ExperimentConfig(
                app=app,
                strategy=strategy,
                spend_rate=spend_rate,
                capacity=capacity,
                n=scale.n,
                periods=scale.periods,
                scenario=scenario,
                seed=seed,
            )
            for spend_rate, capacity in cells
        ]
    return ExperimentSuite.from_configs(
        f"suite-{app}",
        configs,
        description=f"§4.2 (A, C) exploration: {app} / {scenario}",
    )


def format_sweep_table(
    results: Sequence[ExperimentResult], higher_is_better: bool
) -> str:
    """Render one strategy's results as an A x C matrix, best cell marked.

    The figure of merit is the final value of the application's metric;
    a strategy without an A parameter gets the single row ``-``.
    """
    if not results:
        return "(empty sweep)"
    lookup = {}
    for result in results:
        params = result.config.strategy.kwargs
        lookup[params.get("spend_rate"), params["capacity"]] = result
    a_values = sorted({a for a, _ in lookup}, key=lambda a: a or 0)
    c_values = sorted({c for _, c in lookup})
    best = (max if higher_is_better else min)(results, key=lambda r: r.metric.final())
    corner = "A \\ C"
    header = f"{corner:>8} " + " ".join(f"{c:>10}" for c in c_values)
    lines = [header, "-" * len(header)]
    for a in a_values:
        row = [f"{'-' if a is None else a:>8} "]
        for c in c_values:
            result = lookup.get((a, c))
            if result is None:
                row.append(f"{'-':>10}")
            else:
                marker = "*" if result is best else " "
                row.append(f"{result.metric.final():>9.4g}{marker}")
        lines.append(" ".join(row))
    strategy_label = best.config.build_strategy().describe()
    lines.append(f"(* best: {strategy_label} -> {best.metric.final():.4g})")
    return "\n".join(lines)
