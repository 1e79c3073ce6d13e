"""The iterative clustering driver: per-threshold combine/update loops
producing candidate partitions, and final selection by the clustering index
computed on the original curves."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .combining import (
    Partition,
    assign_groups,
    candidate_partition,
    combine_group,
    reference_member,
)
from .curves import Curve, smooth_curve
from .errors import DegenerateDataError, InvalidInputError
from .indices import DistanceMatrix, distances_from_similarity, index_function
from .similarity import PairCache, SimilarityMatrix, similarity_matrix
from .splines import DEFAULT_SPLINES, SplineSettings, check_time_points, uniform_grid
from .updating import update_all, weight_exponent

# Four combination thresholds placed just below the chosen similarity quantile.
THRESHOLD_OFFSETS = tuple(-0.01 + 0.01 * i / 3 for i in range(4))

# Similarities this close to one count as "equal to one" and are excluded from
# the threshold quantile and the weight exponent.
_BELOW_ONE = 1.0 - 1e-12


@dataclass
class RunConfig:
    lambda0: float
    quantile_a: float = 0.25
    index: str = "silhouette"
    dunn_inter: str = "I1"
    dunn_intra: str = "J1"
    grid_size: int = 500
    max_iterations: int = 10
    stability_tol: float = 1e-3
    splines: SplineSettings = field(default_factory=lambda: DEFAULT_SPLINES)

    def __post_init__(self):
        if not (math.isfinite(self.lambda0) and self.lambda0 >= 0):
            raise InvalidInputError("lambda0 must be finite and nonnegative")
        if not 0.0 < self.quantile_a < 1.0:
            raise InvalidInputError("quantile_a must lie in (0, 1)")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.grid_size < 50:
            raise InvalidInputError("grid_size must be at least 50")

    @property
    def index_name(self) -> str:
        if self.index == "dunn":
            return f"dunn-{self.dunn_inter}-{self.dunn_intra}"
        return self.index


@dataclass
class CandidateRecord:
    partition: Partition
    score: float
    threshold: float
    iteration: int


@dataclass
class IterationLog:
    iteration: int
    mean_rho: float
    combinations: int


@dataclass
class RunResult:
    partition: Partition
    threshold: float
    index_name: str
    index_value: float
    iterations: int
    candidates: List[CandidateRecord]
    warps: Dict[int, list]
    logs: Dict[float, List[IterationLog]]


def combination_thresholds(original_sims, a: float = 0.25):
    """Four thresholds at fixed offsets below the 1-a similarity quantile,
    computed on pair similarities strictly below one."""
    filtered = [s for s in original_sims if s < _BELOW_ONE]
    if not filtered:
        raise DegenerateDataError("all pairwise similarities equal one")
    q = float(np.quantile(filtered, 1.0 - a))
    return tuple(q + off for off in THRESHOLD_OFFSETS)


def prepare_curves(points, rows, config: RunConfig, ids=None) -> List[Curve]:
    """Smooth raw observations onto the shared run grid."""
    # smoothed on the caller's own points, not on a grid's snapped copy
    points = check_time_points(points)
    grid = uniform_grid(config.grid_size)
    rows = np.asarray(rows, dtype=float)
    if ids is None:
        ids = list(range(len(rows)))
    return [
        smooth_curve(i, points, row, grid, settings=config.splines)
        for i, row in zip(ids, rows)
    ]


class _Shared:
    """Per-run state shared by the four threshold pipelines (read-only)."""

    def __init__(self, originals: List[Curve], config: RunConfig):
        self.config = config
        self.cache = PairCache()
        self.originals = originals
        self.matrix = self.build_matrix(originals)
        self.original_dist = distances_from_similarity(self.matrix)
        self.index_fn = index_function(config.index, config.dunn_inter, config.dunn_intra)
        sims = self.matrix.values()
        below_one = [s for s in sims if s < _BELOW_ONE]
        # with no similarity below one every update is a no-op, so any
        # exponent works; thresholds are computed (and rejected) in run()
        self.tau = weight_exponent(below_one) if below_one else 1.0

    def build_matrix(self, curves) -> SimilarityMatrix:
        config = self.config
        return similarity_matrix(
            curves,
            config.lambda0,
            settings=config.splines,
            cache=self.cache,
        )

    def score(self, groups, dist: DistanceMatrix) -> float:
        """Index of a partition on `dist`; -inf when unrankable (fewer than
        2 groups, or a non-finite index value)."""
        if len(groups) < 2:
            return -math.inf
        value = self.index_fn(groups, dist)
        return value if math.isfinite(value) else -math.inf


def run_single_threshold(shared: _Shared, c_star: float):
    """One combine/update loop at a fixed threshold; returns the candidate
    records, the iteration log, and the number of iterations used."""
    config = shared.config
    curves = list(shared.originals)
    matrix = shared.matrix
    prev_mean = matrix.mean_rho()
    records: List[CandidateRecord] = []
    seen = set()
    log: List[IterationLog] = []
    iterations = 0

    def score_original(groups):
        # index calls on original ids see each group as a fresh set, whose
        # iteration order is the order the index sums in
        return shared.score([set(g) for g in groups], shared.original_dist)

    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        bank = {c.id: c for c in curves}
        members_of = {i: c.members for i, c in bank.items()}
        dist_current = distances_from_similarity(matrix)

        def nu_updated(groups):
            return shared.score(groups, dist_current)

        def nu0(groups):
            return score_original(
                [set().union(*(members_of[c] for c in g)) for g in groups]
            )

        partial = assign_groups(list(bank), matrix, c_star, nu_updated)
        n_comb = len(partial.groups)
        if n_comb:
            part = candidate_partition(partial, matrix, c_star, nu0, members_of)
            key = frozenset(part.groups)
            if key not in seen:
                seen.add(key)
                records.append(
                    CandidateRecord(
                        partition=part,
                        score=score_original(part.groups),
                        threshold=c_star,
                        iteration=iteration,
                    )
                )
            reps = [
                combine_group(g, bank, matrix, settings=config.splines)
                for g in partial.groups
            ]
            curves = sorted(
                reps + [bank[u] for u in partial.unassigned], key=lambda c: c.id
            )
            if len(curves) == 1:
                log.append(IterationLog(iteration, 1.0, n_comb))
                break
            matrix = shared.build_matrix(curves)

        curves = update_all(curves, matrix, config.lambda0, shared.tau, config.splines)
        matrix = shared.build_matrix(curves)
        mean = matrix.mean_rho()
        log.append(IterationLog(iteration, mean, n_comb))
        if abs(mean - prev_mean) < config.stability_tol:
            break
        prev_mean = mean

    if not records:
        # nothing ever combined at this threshold: all singletons is the
        # only candidate it can offer
        singles = Partition(
            groups=tuple(frozenset([c.id]) for c in shared.originals)
        )
        records = [
            CandidateRecord(
                partition=singles,
                score=score_original(singles.groups),
                threshold=c_star,
                iteration=iterations,
            )
        ]
    return records, log, iterations


def _final_warps(partition: Partition, shared: _Shared):
    """Warp samples (101 points) aligning each original curve to its group's
    reference curve; identity for references and singletons."""
    ts = np.linspace(0.0, 1.0, 101)
    out = {}
    for group in partition.groups:
        reference = min(group) if len(group) == 1 else reference_member(group, shared.matrix)
        for m in sorted(group):
            if m == reference:
                out[m] = [[float(t), float(t)] for t in ts]
            else:
                vals = np.clip(shared.matrix.warp(m, reference).forward(ts), 0.0, 1.0)
                out[m] = [[float(t), float(v)] for t, v in zip(ts, vals)]
    return out


def run(curves: List[Curve], config: RunConfig) -> RunResult:
    """Full pipeline: one combine/update loop per threshold, then pick the
    candidate with the best index on the original curves (ties: fewer groups,
    then smaller threshold)."""
    if len(curves) < 2:
        raise InvalidInputError("need at least 2 curves to cluster")
    shared = _Shared(curves, config)
    thresholds = combination_thresholds(shared.matrix.values(), config.quantile_a)
    all_records: List[CandidateRecord] = []
    logs: Dict[float, List[IterationLog]] = {}
    iteration_count: Dict[float, int] = {}
    for c_star in thresholds:
        records, log, iterations = run_single_threshold(shared, c_star)
        all_records.extend(records)
        logs[c_star] = log
        iteration_count[c_star] = iterations

    winner = sorted(
        all_records,
        key=lambda r: (-r.score, len(r.partition.groups), r.threshold),
    )[0]
    final = Partition(groups=winner.partition.groups, index_value=winner.score)
    return RunResult(
        partition=final,
        threshold=winner.threshold,
        index_name=config.index_name,
        index_value=winner.score,
        iterations=iteration_count[winner.threshold],
        candidates=all_records,
        warps=_final_warps(final, shared),
        logs=logs,
    )
