"""Benchmark grid over the embedded datasets: 3 estimators x 3 orders.

Each stochastic cell aggregates ``repeats`` runs seeded from its config
(seeds seed+0..) and reports their mean error; the deterministic least-squares
cells report one value with zero spread, under the cat-swarm config's seed.
Cells are independent and own their seeds, so they can be computed in any
order without changing a number.
"""

import json
import time
from dataclasses import dataclass

from .datasets import Dataset
from .greymodel import fit_series, lsm_fit
from .optim import (
    PsoConfig,
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
    swarm_cfg: SwarmConfig | None = None,
    pso_cfg: PsoConfig | None = None,
) -> BenchmarkResult:
    """The 3x3 grid on ``dataset``; each swarm cell runs its config's seeds."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    swarm_cfg = swarm_cfg or SwarmConfig()
    pso_cfg = pso_cfg or PsoConfig()
    check_runs(len(BENCHMARK_ORDERS) * repeats, swarm_cfg, pso_cfg)
    series = dataset.series
    cells = []
    for estimator in BENCHMARK_ESTIMATORS:
        for r in BENCHMARK_ORDERS:
            start = time.perf_counter()
            if estimator == "lsm":
                report = fit_series(series, lsm_fit(series, r))
                cell = CellResult(
                    estimator="lsm", r=r, mean_error_pct=report.mape,
                    stddev=0.0, repeats=1, seed=swarm_cfg.seed,
                    elapsed_ms=_ms_since(start),
                )
            else:
                cfg = swarm_cfg if estimator == "adcso" else pso_cfg
                stats = repeat_stats(objective(series, r), default_bounds(series), cfg, repeats)
                cell = CellResult(
                    estimator=estimator, r=r, mean_error_pct=stats.mean,
                    stddev=stats.stddev, repeats=repeats, seed=cfg.seed,
                    elapsed_ms=_ms_since(start), traces=stats.traces,
                )
            cells.append(cell)
    return BenchmarkResult(dataset=dataset.name, cells=tuple(cells))


def _ms_since(start: float) -> float:
    return 1000.0 * (time.perf_counter() - start)


def render_table(result: BenchmarkResult) -> str:
    """Plain-text comparison table, errors rounded to two decimals."""
    headers = ["Algorithm"] + [f"Error when r={r} (%)" for r in BENCHMARK_ORDERS]
    rows = []
    for estimator in BENCHMARK_ESTIMATORS:
        row = [estimator.upper()]
        for r in BENCHMARK_ORDERS:
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
