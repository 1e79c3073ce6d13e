"""Clustering validity indices on similarity-derived distances, plus the
adjusted Rand index for evaluating partitions against ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ElementMismatchError, InvalidInputError, UndefinedIndexError

# The generalized Dunn indices of Bezdek & Pal (1998) combine an inter-group
# distance I with an intra-group spread J; each variant is the reduction it
# applies to the distances between two groups, or within one.
_INTER_REDUCTIONS = {"I1": np.ndarray.min, "I2": np.ndarray.max, "I3": np.ndarray.mean}
_INTRA_REDUCTIONS = {"J1": np.ndarray.max, "J2": np.ndarray.mean}
DUNN_INTER = tuple(_INTER_REDUCTIONS)
DUNN_INTRA = tuple(_INTRA_REDUCTIONS)

# Every index a run can select, under the name its results report: the
# Silhouette and one Dunn index per inter-group distance I and intra-group
# spread J.
INDEX_NAMES = ("silhouette",) + tuple(
    f"dunn-{inter}-{intra}" for inter in DUNN_INTER for intra in DUNN_INTRA
)


@dataclass(eq=False)
class DistanceMatrix:
    """Symmetric dissimilarities as one array, indexed through the id -> row
    map of the similarity matrix they come from; d(a, a) = 0."""

    array: np.ndarray
    row: dict


def distances_from_similarity(matrix) -> DistanceMatrix:
    """d = 1 - rho, floored at 0 (rho can dip below 0 with penalties)."""
    return DistanceMatrix(np.maximum(0.0, 1.0 - matrix.array), matrix.row)


def silhouette(groups, dist: DistanceMatrix) -> float:
    """Mean silhouette width; elements in singleton groups score 0.

    Each group's members are scored at once.  Every mean is a reduce along
    the last axis of a C-contiguous block, which sums each row in the order
    `np.mean` sums that row alone; a fancy-indexed column block is not
    C-contiguous and would sum in another order.  b and the larger of a and b
    follow Python's `min` and `max`: the first value wins a tie, and a NaN
    is kept only where it comes first.
    """
    # each group as its rows, in the group's own iteration order
    groups = [[dist.row[x] for x in g] for g in groups]
    if len(groups) < 2:
        raise UndefinedIndexError("silhouette needs at least 2 groups")
    scores = []
    for gi, group in enumerate(groups):
        m = len(group)
        if m < 2:
            scores.append(np.zeros(m))
            continue
        rows = dist.array[group]
        own = np.ascontiguousarray(rows[:, group])
        a = own[~np.eye(m, dtype=bool)].reshape(m, m - 1).mean(axis=1)
        b = None
        for gj, other in enumerate(groups):
            if gj != gi:
                mean = np.ascontiguousarray(rows[:, other]).mean(axis=1)
                b = mean if b is None else np.where(mean < b, mean, b)
        top = np.where(b > a, b, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores.append(np.where(top == 0.0, 0.0, (b - a) / top))
    return float(np.mean(np.concatenate(scores)))


def _intra_distance(group, dist, reduce):
    if len(group) < 2:
        return 0.0
    # pairs i < j in the group's order, row by row
    values = np.concatenate(
        [dist.array[x, group[i + 1 :]] for i, x in enumerate(group[:-1])]
    )
    return float(reduce(values))


def dunn(groups, dist: DistanceMatrix, inter: str = "I1", intra: str = "J1") -> float:
    """Minimum between-group distance over maximum within-group spread.

    A zero denominator (all groups singletons or zero-diameter) returns the
    infinite-index sentinel float('inf').
    """
    groups = [[dist.row[x] for x in g] for g in groups]
    if len(groups) < 2:
        raise UndefinedIndexError("Dunn index needs at least 2 groups")
    if inter not in _INTER_REDUCTIONS or intra not in _INTRA_REDUCTIONS:
        raise InvalidInputError(f"unknown Dunn variant: inter={inter!r}, intra={intra!r}")
    numer = min(
        float(_INTER_REDUCTIONS[inter](dist.array[groups[i]][:, groups[j]].ravel()))
        for i in range(len(groups))
        for j in range(i + 1, len(groups))
    )
    denom = max(_intra_distance(g, dist, _INTRA_REDUCTIONS[intra]) for g in groups)
    if denom == 0.0:
        return float("inf")
    return numer / denom


def adjusted_rand(p_groups, q_groups) -> float:
    """Chance-corrected agreement between two partitions of the same elements."""
    p_groups = [set(g) for g in p_groups]
    q_groups = [set(g) for g in q_groups]
    universe_p = set().union(*p_groups) if p_groups else set()
    universe_q = set().union(*q_groups) if q_groups else set()
    if universe_p != universe_q:
        raise ElementMismatchError("partitions cover different element sets")
    if sum(len(g) for g in p_groups) != len(universe_p) or (
        sum(len(g) for g in q_groups) != len(universe_q)
    ):
        raise InvalidInputError("partitions must consist of disjoint groups")

    def comb2(n):
        return n * (n - 1) / 2.0

    pair_sum = 0.0
    for gp in p_groups:
        for gq in q_groups:
            pair_sum += comb2(len(gp & gq))
    a = sum(comb2(len(g)) for g in p_groups)
    b = sum(comb2(len(g)) for g in q_groups)
    total = comb2(len(universe_p))
    expected = a * b / total if total > 0 else 0.0
    maximum = (a + b) / 2.0
    if abs(maximum - expected) < 1e-15:
        return 1.0  # both partitions trivial and identical in structure
    return float((pair_sum - expected) / (maximum - expected))


def index_function(name: str):
    """The index named `name` (one of INDEX_NAMES) as a callable
    (groups, dist) -> value."""
    if name not in INDEX_NAMES:
        raise InvalidInputError(f"unknown clustering index: {name!r}")
    if name == "silhouette":
        return silhouette
    _, inter, intra = name.split("-")
    return lambda groups, dist: dunn(groups, dist, inter=inter, intra=intra)
