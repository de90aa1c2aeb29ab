"""Benchmark grid over the embedded datasets: 3 estimators x 3 orders.

Each stochastic cell aggregates ``repeats`` seeded runs (seeds seed+0..)
and reports their mean error; the deterministic least-squares cells report a
single value with zero spread.  Cells are independent and own their seeds, so
they can be computed in any order without changing a number.
"""

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .datasets import Dataset
from .greymodel import fit_series, lsm_fit
from .optim import (
    Bounds,
    PsoConfig,
    RepeatStats,
    SwarmConfig,
    check_runs,
    default_bounds,
    objective,
    repeat_stats,
)

BENCHMARK_ORDERS = (0.25, 0.5, 0.75)
BENCHMARK_ESTIMATORS = ("lsm", "pso", "adcso")

TRACE_HEADER = "iteration,best_fitness"


@dataclass(frozen=True)
class CellResult:
    """One (estimator, order) cell."""

    estimator: str
    r: float
    mean_error_pct: float
    stddev: float
    repeats: int
    seed: int
    elapsed_ms: float
    traces: tuple = ()

    def record(self, dataset: str) -> dict:
        return {
            "dataset": dataset,
            "estimator": self.estimator,
            "r": self.r,
            "mean_error_pct": self.mean_error_pct,
            "stddev": self.stddev,
            "repeats": self.repeats,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class BenchmarkResult:
    dataset: str
    cells: tuple

    def cell(self, estimator: str, r: float) -> CellResult:
        for c in self.cells:
            if c.estimator == estimator and c.r == r:
                return c
        raise KeyError(f"no cell for ({estimator}, {r})")

    def records(self) -> list:
        return [c.record(self.dataset) for c in self.cells]


def run_benchmark(
    dataset: Dataset,
    repeats: int = 10,
    seed: int = 0,
    swarm_cfg: SwarmConfig | None = None,
    pso_cfg: PsoConfig | None = None,
    bounds: Bounds | None = None,
    orders=BENCHMARK_ORDERS,
) -> BenchmarkResult:
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    check_runs(2 * len(orders) * repeats)  # two swarm estimators
    series = dataset.series
    box = bounds or default_bounds(series)
    swarm_cfg = replace(swarm_cfg or SwarmConfig(), seed=seed)
    pso_cfg = replace(pso_cfg or PsoConfig(), seed=seed)
    cells = []
    for estimator in BENCHMARK_ESTIMATORS:
        for r in orders:
            start = time.perf_counter()
            if estimator == "lsm":
                report = fit_series(series, lsm_fit(series, r))
                cell = CellResult(
                    estimator="lsm", r=r, mean_error_pct=report.mape,
                    stddev=0.0, repeats=1, seed=seed,
                    elapsed_ms=_ms_since(start),
                )
            else:
                cfg = swarm_cfg if estimator == "adcso" else pso_cfg
                stats: RepeatStats = repeat_stats(objective(series, r), box, cfg, repeats)
                cell = CellResult(
                    estimator=estimator, r=r, mean_error_pct=stats.mean,
                    stddev=stats.stddev, repeats=repeats, seed=seed,
                    elapsed_ms=_ms_since(start), traces=stats.traces,
                )
            cells.append(cell)
    return BenchmarkResult(dataset=dataset.name, cells=tuple(cells))


def _ms_since(start: float) -> float:
    return 1000.0 * (time.perf_counter() - start)


def render_table(result: BenchmarkResult, orders=BENCHMARK_ORDERS) -> str:
    """Plain-text comparison table, errors rounded to two decimals."""
    headers = ["Algorithm"] + [f"Error when r={r} (%)" for r in orders]
    rows = []
    for estimator in BENCHMARK_ESTIMATORS:
        row = [estimator.upper()]
        for r in orders:
            row.append(f"{result.cell(estimator, r).mean_error_pct:.2f}")
        rows.append(row)
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def write_results_json(result: BenchmarkResult, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.records(), handle, indent=2)
        handle.write("\n")


def write_trace_csv(trace, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(TRACE_HEADER + "\n")
        for i, value in enumerate(trace.best_fitness_per_iter):
            handle.write(f"{i},{float(value)!r}\n")


def write_traces(result: BenchmarkResult, directory) -> list:
    """One convergence CSV per stochastic run; returns the paths written."""
    paths = []
    for cell in result.cells:
        for i, trace in enumerate(cell.traces):
            path = directory / (
                f"{result.dataset}_{cell.estimator}_r{cell.r}_seed{cell.seed + i}.csv"
            )
            write_trace_csv(trace, path)
            paths.append(path)
    return paths
