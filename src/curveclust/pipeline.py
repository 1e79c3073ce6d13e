"""The iterative clustering driver: per-threshold combine/update loops
producing candidate partitions, and final selection by the clustering index
computed on the original curves.

The four threshold loops share only the pair cache, and they run in lockstep
rounds: each round searches the uncached pairs of every matrix the loops wait
on in one build, so one set of helper processes serves all four loops.  Each
loop computes what it would compute alone, in the same order; see the
`similarity` module for the one way the round order can reach a pair's
entry."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .similarity import PairCache, SimilarityMatrix, search_uncached, similarity_matrix
from .splines import SHAPE, Layout, check_time_points, uniform_grid
from .updating import update_all, weight_exponent
from .warping import check_lambda0, warp_samples

# Four combination thresholds placed just below the chosen similarity quantile.
THRESHOLD_OFFSETS = tuple(-0.01 + 0.01 * i / 3 for i in range(4))

# A threshold's loop stops once an iteration moves the mean similarity by less
# than this.
STABILITY_TOL = 1e-3

# Similarities this close to one count as "equal to one" and are excluded from
# the threshold quantile and the weight exponent.
_BELOW_ONE = 1.0 - 1e-12


@dataclass
class RunConfig:
    lambda0: float
    quantile_a: float = 0.25
    index: str = "silhouette"  # one of indices.INDEX_NAMES
    grid_size: int = 500
    max_iterations: int = 10
    splines: Layout = SHAPE

    def __post_init__(self):
        check_lambda0(self.lambda0)
        if not 0.0 < self.quantile_a < 1.0:
            raise InvalidInputError("quantile_a must lie in (0, 1)")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.grid_size < 50:
            raise InvalidInputError("grid_size must be at least 50")
        index_function(self.index)


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


def combination_thresholds(original_sims, a: float = RunConfig.quantile_a):
    """Four thresholds at fixed offsets below the 1-a similarity quantile,
    computed on pair similarities strictly below one."""
    filtered = [s for s in original_sims if s < _BELOW_ONE]
    if not filtered:
        raise DegenerateDataError("all pairwise similarities equal one")
    q = float(np.quantile(filtered, 1.0 - a))
    return tuple(q + off for off in THRESHOLD_OFFSETS)


def prepare_curves(points, rows, config: RunConfig) -> List[Curve]:
    """Smooth raw observations onto the shared run grid; curve i is row i."""
    # smoothed on the caller's own points, not on a grid's snapped copy
    points = check_time_points(points)
    grid = uniform_grid(config.grid_size)
    rows = np.asarray(rows, dtype=float)
    return [
        smooth_curve(i, points, row, grid, settings=config.splines)
        for i, row in enumerate(rows)
    ]


class _Shared:
    """Per-run state shared by the four threshold pipelines (read-only)."""

    def __init__(self, originals: List[Curve], config: RunConfig):
        self.config = config
        self.cache = PairCache()
        self.originals = originals
        self.matrix = self.build_matrix(originals)
        self.original_dist = distances_from_similarity(self.matrix)
        self.index_fn = index_function(config.index)
        sims = self.matrix.values()
        below_one = [s for s in sims if s < _BELOW_ONE]
        # with no similarity below one every update is a no-op, so any
        # exponent works; thresholds are computed (and rejected) in run()
        self.tau = weight_exponent(below_one) if below_one else 1.0

    def build_matrix(self, curves) -> SimilarityMatrix:
        return similarity_matrix(curves, self.config.lambda0, cache=self.cache)

    def score(self, groups, dist: DistanceMatrix) -> float:
        """Index of a partition on `dist`; -inf when unrankable (fewer than
        2 groups, or a non-finite index value)."""
        if len(groups) < 2:
            return -math.inf
        value = self.index_fn(groups, dist)
        return value if math.isfinite(value) else -math.inf


def _threshold_loop(shared: _Shared, c_star: float):
    """One combine/update loop at a fixed threshold, as a generator: it yields
    each curve list whose similarity matrix it needs, is sent that matrix,
    and returns the candidate records and the iteration log, one entry per
    iteration used."""
    config = shared.config
    curves = list(shared.originals)
    matrix = shared.matrix
    prev_mean = matrix.mean_rho()
    records: List[CandidateRecord] = []
    seen = set()
    log: List[IterationLog] = []

    def score_original(groups):
        # index calls on original ids see each group as a fresh set, whose
        # iteration order is the order the index sums in
        return shared.score([set(g) for g in groups], shared.original_dist)

    for iteration in range(1, config.max_iterations + 1):
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
            matrix = yield curves

        curves = update_all(curves, matrix, config.lambda0, shared.tau, config.splines)
        matrix = yield curves
        mean = matrix.mean_rho()
        log.append(IterationLog(iteration, mean, n_comb))
        if abs(mean - prev_mean) < STABILITY_TOL:
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
                iteration=len(log),
            )
        ]
    return records, log


def _run_loops(shared: _Shared, thresholds) -> list:
    """The loops of `thresholds` (`_threshold_loop`) in lockstep rounds; the
    (records, log) of each, in threshold order.

    Each round collects the curve list that every unfinished loop waits on,
    in threshold order, searches the uncached pairs of all of them in one
    build (`search_uncached`), then sends each loop, in threshold order, its
    matrix, whose pairs are all cached by then.  If a loop or a build raises,
    the other loops are closed and the error propagates.
    """
    loops = [_threshold_loop(shared, c_star) for c_star in thresholds]
    outcomes = [None] * len(loops)
    waiting = {}  # loop index -> the curves it waits on, in threshold order

    def advance(i, matrix):
        try:
            waiting[i] = loops[i].send(matrix)
        except StopIteration as done:
            outcomes[i] = done.value

    try:
        for i in range(len(loops)):
            advance(i, None)
        while waiting:
            requests, waiting = waiting, {}
            search_uncached(requests.values(), shared.config.lambda0, shared.cache)
            for i, curves in requests.items():
                advance(i, shared.build_matrix(curves))
    finally:
        for loop in loops:
            loop.close()
    return outcomes


def _final_warps(partition: Partition, shared: _Shared):
    """Warp samples (101 points) aligning each original curve to its group's
    reference curve; identity for references and singletons."""
    out = {}
    for group in partition.groups:
        reference = min(group) if len(group) == 1 else reference_member(group, shared.matrix)
        for m in sorted(group):
            warp = None if m == reference else shared.matrix.warp(m, reference)
            out[m] = warp_samples(warp)
    return out


def run(curves: List[Curve], config: RunConfig) -> RunResult:
    """Full pipeline: one combine/update loop per threshold, all four in
    lockstep (`_run_loops`), then pick the candidate with the best index on
    the original curves (ties: fewer groups, then smaller threshold)."""
    if len(curves) < 2:
        raise InvalidInputError("need at least 2 curves to cluster")
    shared = _Shared(curves, config)
    thresholds = combination_thresholds(shared.matrix.values(), config.quantile_a)
    all_records: List[CandidateRecord] = []
    logs: Dict[float, List[IterationLog]] = {}
    for c_star, (records, log) in zip(thresholds, _run_loops(shared, thresholds)):
        logs[c_star] = log
        all_records.extend(records)

    winner = sorted(
        all_records,
        key=lambda r: (-r.score, len(r.partition.groups), r.threshold),
    )[0]
    return RunResult(
        partition=winner.partition,
        threshold=winner.threshold,
        index_name=config.index,
        index_value=winner.score,
        iterations=len(logs[winner.threshold]),
        candidates=all_records,
        warps=_final_warps(winner.partition, shared),
        logs=logs,
    )
