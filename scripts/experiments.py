"""The desk-scale simulation studies, one subcommand each:

  contrast    both penalty settings against the two- and three-cluster truths
  indexes     the Silhouette and every Dunn index of INDEX_NAMES
  thresholds  sensitivity to the combination-threshold quantile
  two-group   noiseless two-group recovery

The first three cluster the scaled three-group design and print the adjusted
Rand index over the seeds as mean (std).
"""

import argparse
import sys

import numpy as np

from curveclust.indices import INDEX_NAMES, adjusted_rand
from curveclust.pipeline import RunConfig, prepare_curves, run
from curveclust.simulation import Scenario, generate, scenario_preset


def numbers(text, kind=int):
    return [kind(v) for v in text.split(",")]


def scaled_design(seed, sigma, sizes=(4, 4, 4), n_points=100):
    """Shapes f1-f3, each curve under one of four power warps near the
    identity.  The first and third groups share a shape after warping, so
    the two-cluster ("merged") truth joins them."""
    return generate(Scenario(
        shapes=("f1", "f2", "f3"), warp="power", alphas=(0.9, 0.95, 1.05, 1.1), sizes=sizes,
        sigma=sigma, n_points=n_points, seed=seed, merged=(0, 2),
    ))


def partition(data, config):
    return run(prepare_curves(data.points, data.samples, config), config).partition.groups


def ari_mean_std(args, config, truths, width="", design=None):
    """One "mean (std)" of the adjusted Rand index over the seeds per truth
    name, each seed's data set (by default the scaled design) clustered once.
    A width pads the mean and leaves no space before the parenthesis."""
    scores = {truth: [] for truth in truths}
    for seed in numbers(args.seeds):
        data = design(seed) if design else scaled_design(seed, args.sigma)
        groups = partition(data, config)
        for truth, found in scores.items():
            found.append(adjusted_rand(groups, data.truths[truth]))
    gap = "" if width else " "
    return [f"{np.mean(s):{width}.4f}{gap}({np.std(s):.4f})" for s in scores.values()]


def contrast(args):
    """Both penalty settings: with none the two-cluster truth should win;
    at 0.5 the large warps are taxed and the three-cluster truth should."""
    sizes = tuple(numbers(args.sizes))
    print(f"sizes={sizes} sigma={args.sigma} index={args.index}")
    print(f"{'lambda0':>8} {'ARI (2-cluster)':>18} {'ARI (3-cluster)':>18}")
    for lambda0 in (0.0, 0.5):
        config = RunConfig(lambda0=lambda0, grid_size=args.grid, index=args.index)
        cells = ari_mean_std(
            args, config, ("merged", "natural"), width=11,
            design=lambda seed: scaled_design(seed, args.sigma, sizes, args.points),
        )
        print(f"{lambda0:8.2f} " + " ".join(cells))


def sweep(args, settings, header=False):
    """One line per (label, RunConfig fields) setting: the ARI against the
    truth that lambda0 favours.  A penalty keeps the three groups apart;
    without one the first and third merge."""
    truth = "natural" if args.lambda0 > 0 else "merged"
    if header:
        print(f"lambda0={args.lambda0} sigma={args.sigma} truth={truth}")
    for label, fields in settings:
        config = RunConfig(lambda0=args.lambda0, grid_size=args.grid, **fields)
        print(f"{label}: ARI {ari_mean_std(args, config, [truth])[0]}")


def indexes(args):
    """The pipeline under each index of INDEX_NAMES."""
    sweep(args, [(f"{index:>14}", dict(index=index)) for index in INDEX_NAMES], header=True)


def thresholds(args):
    """Thresholds at each quantile level q of the original similarities."""
    quantiles = numbers(args.quantiles, float)
    sweep(args, [(f"q={q:.2f}", dict(quantile_a=1.0 - q)) for q in quantiles])


def two_group(args):
    """Scenario s33b: sine and cosine shapes under square-time composition,
    each group under four fixed power warps, no noise.  The method should
    recover the two groups exactly at zero penalty."""
    config = RunConfig(lambda0=args.lambda0, grid_size=args.grid)
    for seed in numbers(args.seeds):
        data = generate(scenario_preset("s33b", n_points=args.points, seed=seed))
        groups = partition(data, config)
        ari = adjusted_rand(groups, data.truths["natural"])
        print(f"seed={seed}: ARI={ari:.4f} partition={[sorted(g) for g in groups]}")


# each subcommand's options and their defaults; an option's type is its default's
SUBCOMMANDS = {
    "contrast": (contrast, dict(
        sizes="4,4,4", sigma=0.15, seeds="1,2,3,4,5", points=100, grid=100, index=RunConfig.index
    )),
    "indexes": (indexes, dict(lambda0=0.5, sigma=0.15, seeds="1,2,3", grid=100)),
    "thresholds": (thresholds, dict(
        lambda0=0.5, sigma=0.15, quantiles="0.45,0.55,0.65,0.75,0.85", seeds="1,2,3", grid=100
    )),
    "two-group": (two_group, dict(seeds="0,1,2", points=100, grid=100, lambda0=0.0)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, defaults) in SUBCOMMANDS.items():
        p = sub.add_parser(name, description=func.__doc__)
        for option, default in defaults.items():
            choices = INDEX_NAMES if option == "index" else None
            p.add_argument(f"--{option}", type=type(default), default=default, choices=choices)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
