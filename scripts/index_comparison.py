"""Clustering-index comparison on the scaled three-group design: run the
pipeline with the Silhouette index and with every Dunn variant, and report the
adjusted Rand index of each final partition.

Usage: python scripts/index_comparison.py [--lambda0 0.5] [--seeds 1,2,3]
"""

import argparse
import sys

import numpy as np

from curveclust.indices import INDEX_NAMES, adjusted_rand
from curveclust.pipeline import RunConfig, prepare_curves, run
from curveclust.simulation import Scenario, generate


def cluster(data, config):
    return run(prepare_curves(data.points, data.samples, config), config)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lambda0", type=float, default=0.5)
    parser.add_argument("--sigma", type=float, default=0.15)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--grid", type=int, default=100)
    args = parser.parse_args(argv)
    seeds = [int(v) for v in args.seeds.split(",")]
    truth_key = "natural" if args.lambda0 > 0 else "merged"

    print(f"lambda0={args.lambda0} sigma={args.sigma} truth={truth_key}")
    for index in INDEX_NAMES:
        scores = []
        for seed in seeds:
            scenario = Scenario(
                shapes=("f1", "f2", "f3"),
                warp="power",
                alphas=(0.9, 0.95, 1.05, 1.1),
                sizes=(4, 4, 4),
                sigma=args.sigma,
                n_points=100,
                seed=seed,
                merged=(0, 2),
            )
            data = generate(scenario)
            config = RunConfig(lambda0=args.lambda0, grid_size=args.grid, index=index)
            result = cluster(data, config)
            scores.append(adjusted_rand(result.partition.groups, data.truths[truth_key]))
        print(f"{index:>14}: ARI {np.mean(scores):.4f} ({np.std(scores):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
