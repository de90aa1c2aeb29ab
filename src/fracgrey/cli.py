"""Command-line interface: fit, order-search, benchmark, forecast.

Exit codes: 0 success, 1 usage error, 2 data error, 3 singular least-squares
design.  A usage error is a bad option or config file, or any argument the
library rejects: the commands pass seeds, orders, grid steps, repeats and
horizons to the library, whose checks run before any search.  Runs with an
explicit --seed are byte-reproducible.
"""

import argparse
import json
import sys
from pathlib import Path

from .benchmark import render_table, run_benchmark, write_results_json, write_traces
from .config import pso_config_from_file, swarm_config_from_file
from .datasets import get_dataset, load_csv
from .errors import DataError, SingularDesignError, UsageError
from .greymodel import MAX_HORIZON, Series, check_horizon, fit_series, forecast
from .optim import MAX_RUNS, PsoConfig, SwarmConfig, estimate, order_search


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_input_flags(parser, with_csv=True):
    parser.add_argument("--dataset", choices=["wuhan", "zhejiang"],
                        help="embedded benchmark dataset")
    if with_csv:
        parser.add_argument("--csv", metavar="PATH",
                            help="label,value CSV with one observation per row")


def _add_run_flags(parser, default_estimator="lsm"):
    parser.add_argument("--estimator", choices=["lsm", "pso", "adcso"],
                        default=default_estimator)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", metavar="PATH",
                        help="key=value settings file for the chosen swarm estimator")


def _build_parser():
    parser = _Parser(prog="fracgrey",
                     description="Fractional-order grey forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[], help="fit (a, b) at a fixed order")
    _add_input_flags(p_fit)
    p_fit.add_argument("--r", type=float, required=True, help="fractional order in (0, 2]")
    _add_run_flags(p_fit)
    p_fit.add_argument("--out", metavar="PATH", help="write a JSON fit report")
    p_fit.set_defaults(func=cmd_fit)

    p_os = sub.add_parser("order-search", help="grid-search the fractional order")
    _add_input_flags(p_os)
    p_os.add_argument("--step", type=float, default=0.01,
                      help="grid step in [0.001, 0.5] (at most 1000 orders)")
    p_os.add_argument("--repeats", type=int, default=10,
                      help="seeded runs averaged per grid point (swarm estimators);"
                           f" orders x repeats <= {MAX_RUNS}")
    _add_run_flags(p_os, default_estimator="adcso")
    p_os.add_argument("--out", metavar="PATH", help="also write the error curve CSV here")
    p_os.set_defaults(func=cmd_order_search)

    p_bench = sub.add_parser("benchmark", help="run the 3x3 estimator/order comparison")
    _add_input_flags(p_bench, with_csv=False)
    p_bench.add_argument("--repeats", type=int, default=10,
                         help=f"seeded runs per swarm cell; 6 x repeats <= {MAX_RUNS}")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--config", metavar="PATH",
                         help="key=value settings applied to the cat-swarm cells")
    p_bench.add_argument("--out", metavar="DIR",
                         help="write results.json, table.txt and per-run traces here")
    p_bench.set_defaults(func=cmd_benchmark, estimator="adcso")

    p_fc = sub.add_parser("forecast", help="order-search, fit, and predict ahead")
    _add_input_flags(p_fc)
    p_fc.add_argument("--horizon", type=int, default=1,
                      help=f"periods to predict, 1 to {MAX_HORIZON}")
    p_fc.add_argument("--step", type=float, default=0.01)
    p_fc.add_argument("--repeats", type=int, default=10)
    _add_run_flags(p_fc, default_estimator="adcso")
    p_fc.add_argument("--out", metavar="PATH", help="write the predictions CSV here")
    p_fc.set_defaults(func=cmd_forecast)

    return parser


def _series_from(args) -> tuple[str, Series]:
    csv_path = getattr(args, "csv", None)
    if args.dataset and csv_path:
        raise UsageError("pass either --dataset or --csv, not both")
    if args.dataset:
        return args.dataset, get_dataset(args.dataset).series
    if csv_path:
        return Path(csv_path).stem, load_csv(csv_path)
    raise UsageError("one of --dataset or --csv is required")


def _configs_from(args):
    """Swarm and particle configs for this run, honoring --config and --seed."""
    seed = args.seed
    config_path = getattr(args, "config", None)
    if config_path and args.estimator == "lsm":
        raise UsageError("--config only applies to the swarm estimators")
    swarm = SwarmConfig(seed=seed)
    pso = PsoConfig(seed=seed)
    if config_path:
        if args.estimator == "adcso":
            swarm = swarm_config_from_file(config_path, seed=seed)
        else:
            pso = pso_config_from_file(config_path, seed=seed)
    return swarm, pso


def cmd_fit(args) -> int:
    name, series = _series_from(args)
    swarm, pso = _configs_from(args)
    params, trace = estimate(series, args.r, estimator=args.estimator,
                             swarm_cfg=swarm, pso_cfg=pso)
    report = fit_series(series, params)
    print(f"dataset: {name} ({len(series)} points, "
          f"{series.labels[0]}..{series.labels[-1]})")
    print(f"estimator: {args.estimator}")
    if args.estimator != "lsm":
        print(f"seed: {args.seed}")
    print(f"r: {params.r!r}")
    print(f"a: {params.a!r}")
    print(f"b: {params.b!r}")
    print("label  actual  fitted  error_pct")
    for i, label in enumerate(series.labels):
        err = "-" if i == 0 else f"{report.per_point_error[i - 1]:.4f}"
        print(f"{label}  {series.values[i]:.4f}  {report.fitted[i]:.4f}  {err}")
    print(f"MAPE_pct: {report.mape:.4f}")
    if args.out:
        payload = {
            "dataset": name,
            "estimator": args.estimator,
            "seed": args.seed,
            "r": params.r,
            "a": params.a,
            "b": params.b,
            "mape_pct": report.mape,
            "labels": [int(v) for v in series.labels],
            "actual": list(series.values),
            "fitted": list(report.fitted),
            "residuals": list(report.residuals),
            "per_point_error_pct": list(report.per_point_error),
        }
        if trace is not None:
            payload["best_fitness"] = trace.best_fitness
            payload["evaluations"] = trace.evaluations
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0


def _search(args):
    """Input name, series and order search of ``args``."""
    name, series = _series_from(args)
    swarm, pso = _configs_from(args)
    result = order_search(series, grid_step=args.step, estimator=args.estimator,
                          repeats=args.repeats, swarm_cfg=swarm, pso_cfg=pso)
    return name, series, result


def cmd_order_search(args) -> int:
    _, _, result = _search(args)
    curve_lines = ["r,mean_error"]
    curve_lines += [f"{float(r)!r},{float(e)!r}"
                    for r, e in zip(result.grid, result.mean_fitness)]
    print("\n".join(curve_lines))
    best_err = float(result.mean_fitness.min())
    print(f"best r: {result.order!r} (mean error {best_err!r}%)")
    print(f"a: {result.params.a!r}")
    print(f"b: {result.params.b!r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(curve_lines) + "\n")
    return 0


def cmd_benchmark(args) -> int:
    if not args.dataset:
        raise UsageError("--dataset is required for benchmark")
    swarm, pso = _configs_from(args)
    dataset = get_dataset(args.dataset)
    result = run_benchmark(dataset, repeats=args.repeats, seed=args.seed,
                           swarm_cfg=swarm, pso_cfg=pso)
    table = render_table(result)
    print(table)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_results_json(result, out / "results.json")
        (out / "table.txt").write_text(table + "\n", encoding="utf-8")
        traces_dir = out / "traces"
        traces_dir.mkdir(exist_ok=True)
        write_traces(result, traces_dir)
    return 0


def cmd_forecast(args) -> int:
    horizon = args.horizon
    check_horizon(horizon)  # before the search, which may take long
    name, series, result = _search(args)
    predictions = forecast(series, result.params, horizon)
    print(f"# {name}: r={result.params.r!r} a={result.params.a!r} "
          f"b={result.params.b!r} estimator={args.estimator}", file=sys.stderr)
    lines = ["label,value"]
    lines += [f"{label},{float(value)!r}"
              for label, value in zip(series.future_labels(horizon), predictions)]
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    # A ValueError is a library check rejecting an argument; DataError, a
    # subclass, is caught above.
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SingularDesignError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
