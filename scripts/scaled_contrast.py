"""Desk-scale penalty contrast: cluster the three-group power-warp design at
both penalty settings and report adjusted Rand indexes against the two-cluster
(merged) and three-cluster truths.

With no penalty the first and third groups share a shape after warping, so the
two-cluster result should win; with a penalty of 0.5 the large warps are taxed
and the three-cluster result should win.

Usage: python scripts/scaled_contrast.py [--sigma 0.15] [--seeds 1,2,3,4,5]
"""

import argparse
import sys

import numpy as np

from curveclust.indices import INDEX_NAMES, adjusted_rand
from curveclust.pipeline import RunConfig, prepare_curves, run
from curveclust.simulation import Scenario, generate


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="4,4,4")
    parser.add_argument("--sigma", type=float, default=0.15)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--points", type=int, default=100)
    parser.add_argument("--grid", type=int, default=100)
    parser.add_argument("--index", choices=INDEX_NAMES, default=RunConfig.index)
    args = parser.parse_args(argv)
    sizes = tuple(int(v) for v in args.sizes.split(","))
    seeds = [int(v) for v in args.seeds.split(",")]

    print(f"sizes={sizes} sigma={args.sigma} index={args.index}")
    print(f"{'lambda0':>8} {'ARI (2-cluster)':>18} {'ARI (3-cluster)':>18}")
    for lambda0 in (0.0, 0.5):
        ari2, ari3 = [], []
        for seed in seeds:
            scenario = Scenario(
                shapes=("f1", "f2", "f3"),
                warp="power",
                alphas=(0.9, 0.95, 1.05, 1.1),
                sizes=sizes,
                sigma=args.sigma,
                n_points=args.points,
                seed=seed,
                merged=(0, 2),
            )
            data = generate(scenario)
            config = RunConfig(lambda0=lambda0, grid_size=args.grid, index=args.index)
            result = run(prepare_curves(data.points, data.samples, config), config)
            ari2.append(adjusted_rand(result.partition.groups, data.truths["merged"]))
            ari3.append(adjusted_rand(result.partition.groups, data.truths["natural"]))
        print(
            f"{lambda0:8.2f} {np.mean(ari2):11.4f}({np.std(ari2):.4f}) "
            f"{np.mean(ari3):11.4f}({np.std(ari3):.4f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
