#!/usr/bin/env python3
"""Run the full 3x3 estimator/order comparison on both embedded datasets.

Ten seeded runs per stochastic cell at the reference settings; prints the two
comparison tables and optionally writes results and convergence traces.
Takes roughly 5 seconds per dataset on one core.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracgrey import (  # noqa: E402
    DATASETS,
    render_table,
    run_benchmark,
    write_results_json,
    write_traces,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", metavar="DIR", default=None)
    args = parser.parse_args()

    for name, dataset in DATASETS.items():
        result = run_benchmark(dataset, repeats=args.repeats, seed=args.seed)
        print(f"\n== {name} ==")
        print(render_table(result))
        if args.out:
            out = Path(args.out) / name
            out.mkdir(parents=True, exist_ok=True)
            write_results_json(result, out / "results.json")
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            write_traces(result, traces)
            print(f"results and traces written to {out}")


if __name__ == "__main__":
    main()
