#!/usr/bin/env python3
"""Grid-search the fractional order on both embedded datasets (step 0.01).

With the default cat-swarm settings and one run per grid point this takes
roughly 2 seconds per dataset on one core and lands on order 0.21 for the
container-throughput series and ~0.03 for the marine-capture series.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracgrey import DATASETS, SwarmConfig, order_search  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=0.01)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for name, dataset in DATASETS.items():
        result = order_search(
            dataset.series,
            grid_step=args.step,
            estimator="adcso",
            repeats=args.repeats,
            swarm_cfg=SwarmConfig(seed=args.seed),
        )
        print(f"{name}: best order {result.order} "
              f"(mean error {result.mean_fitness.min():.4f}%), "
              f"a={result.params.a:.6g}, b={result.params.b:.6g}")


if __name__ == "__main__":
    main()
