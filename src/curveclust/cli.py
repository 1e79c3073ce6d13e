"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 degenerate data.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DegenerateDataError, InvalidInputError
from .indices import INDEX_NAMES, adjusted_rand, distances_from_similarity, index_function
from .io import (
    check_output_path,
    read_curves_csv,
    read_labels_csv,
    read_partition_json,
    result_json,
    write_curves_csv,
    write_labels_csv,
    write_text,
)
from .pipeline import RunConfig, prepare_curves, run
from .similarity import similarity, similarity_matrix
from .simulation import PRESETS, Scenario, generate, scenario_preset
from .warping import warp_samples


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveclust",
        description="Clustering of misaligned curves via penalized warping similarity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster the curves of a CSV file")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--index", choices=INDEX_NAMES, default=RunConfig.index)
    p.add_argument("--quantile-a", type=float, default=RunConfig.quantile_a)
    # align and indexes take the same default grid, so that they reproduce the
    # values a cluster run used
    p.add_argument("--grid", type=int, default=RunConfig.grid_size)
    p.add_argument("--max-iter", type=int, default=RunConfig.max_iterations)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("simulate", help="generate a simulation scenario as CSV")
    p.add_argument("--scenario", choices=list(PRESETS), required=True)
    p.add_argument("--sizes", default=None, help="comma-separated group sizes, e.g. 10,10,10")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--points", type=int, default=Scenario.n_points)
    p.add_argument("--seed", type=int, default=Scenario.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("evaluate", help="adjusted Rand index of a prediction against truth labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("align", help="similarity and warp for one pair of curves")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", required=True, help="two curve ids, e.g. 3,7")
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--grid", type=int, default=RunConfig.grid_size)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("indexes", help="Silhouette and all Dunn variants for a partition")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--grid", type=int, default=RunConfig.grid_size)
    p.set_defaults(func=_cmd_indexes)

    return parser


def _load_curves(path, config: RunConfig):
    names, points, samples = read_curves_csv(path)
    curves = prepare_curves(points, samples, config)
    return names, curves


def _cmd_cluster(args) -> int:
    check_output_path(args.output)
    config = RunConfig(
        lambda0=args.lambda0,
        quantile_a=args.quantile_a,
        index=args.index,
        grid_size=args.grid,
        max_iterations=args.max_iter,
    )
    names, curves = _load_curves(args.input, config)
    result = run(curves, config)
    write_text(args.output, result_json(result, names))
    return 0


def _cmd_simulate(args) -> int:
    check_output_path(args.out)
    check_output_path(args.labels)
    sizes = None
    if args.sizes is not None:
        try:
            sizes = tuple(int(v) for v in args.sizes.split(","))
        except ValueError as exc:
            raise InvalidInputError(f"bad --sizes value: {exc}") from exc
    scenario = scenario_preset(
        args.scenario, sizes=sizes, sigma=args.sigma, n_points=args.points, seed=args.seed
    )
    data = generate(scenario)
    write_curves_csv(args.out, data.ids, data.points, data.samples)
    write_labels_csv(args.labels, data.ids, data.labels)
    return 0


def _cmd_evaluate(args) -> int:
    predicted = read_partition_json(args.pred)
    seen = set()
    for name in (name for group in predicted for name in group):
        if name in seen:
            raise InvalidInputError(f"curve id {name!r} is listed twice in the partition")
        seen.add(name)
    labels = read_labels_csv(args.truth)
    by_label: dict = {}
    for name, label in labels.items():
        by_label.setdefault(label, set()).add(name)
    truth = [frozenset(group) for group in by_label.values()]
    pred = [frozenset(group) for group in predicted]
    print(f"{adjusted_rand(pred, truth):.6f}")
    return 0


def _cmd_align(args) -> int:
    check_output_path(args.out)
    parts = args.pair.split(",")
    if len(parts) != 2:
        raise InvalidInputError("--pair needs exactly two ids, e.g. 3,7")
    if parts[0] == parts[1]:
        raise InvalidInputError(f"curve id {parts[0]!r} is listed twice in --pair")
    config = RunConfig(lambda0=args.lambda0, grid_size=args.grid)
    names, curves = _load_curves(args.input, config)
    index_of = {name: i for i, name in enumerate(names)}
    try:
        a, b = (index_of[p] for p in parts)
    except KeyError as exc:
        raise InvalidInputError(f"unknown curve id: {exc}") from exc
    entry = similarity(curves[a], curves[b], args.lambda0)
    data = {
        "pair": parts,
        "rho": entry.rho,
        "r_fwd": entry.r_fwd,
        "r_inv": entry.r_inv,
        "penalty_fwd": entry.penalty_fwd,
        "penalty_inv": entry.penalty_inv,
        "warp": warp_samples(entry.warp),
    }
    write_text(args.out, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_indexes(args) -> int:
    config = RunConfig(lambda0=args.lambda0, grid_size=args.grid)
    names, curves = _load_curves(args.input, config)
    index_of = {name: i for i, name in enumerate(names)}
    groups = []
    for group in read_partition_json(args.partition):
        try:
            groups.append([index_of[name] for name in group])
        except KeyError as exc:
            raise InvalidInputError(f"unknown curve id in partition: {exc}") from exc
    placed = sorted(i for group in groups for i in group)
    if len(groups) < 2 or not all(groups) or placed != list(range(len(names))):
        raise InvalidInputError(
            "partition must have at least 2 nonempty groups that hold each curve once"
        )
    groups = [set(group) for group in groups]
    matrix = similarity_matrix(curves, args.lambda0)
    dist = distances_from_similarity(matrix)
    for name in INDEX_NAMES:
        value = index_function(name)(groups, dist)
        text = "inf" if value == float("inf") else f"{value:.6f}"
        print(f"{name} {text}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
