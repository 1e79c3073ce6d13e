"""Pairwise penalized similarity: correlation of aligned curves minus the
time-variation penalty, symmetrized over direction, with matrix-level caching.

`similarity` maximizes it for one pair and `similarity_matrix` for every
pair of a collection, both through one build (`warping.final_points`) and a
pick per pair (`warping.optimize_warping`); `search_uncached` makes one build
for the uncached pairs of several collections at once.  One warp is
optimized per unordered pair of curve contents; the opposite order reads the
same warp with its forward and inverse splines swapped, so the stored
similarity is symmetric by construction.

Which way a pair is searched is fixed by the first request for its contents:
the lower id first, in the first collection of the first build that holds
it.  Searching (g, f) instead of (f, g) can give other bytes, so an entry
depends on the order of the builds that could first hold it.  The clustering
pipeline builds once per round for all its threshold loops, so a later
threshold may search a pair before an earlier one asks for it.  That changes
bytes only if two loops hold the same two contents under opposite id orders,
and since contents exclude ids and a combined curve takes its group's
smallest id, only two histories giving bit-identical samples can do that.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .curves import Curve
from .errors import InvalidInputError
from .warping import SimilarityEntry, Warping, final_points, optimize_warping, rho_parts

__all__ = [
    "SimilarityEntry",
    "SimilarityMatrix",
    "PairCache",
    "rho_given_psi",
    "search_uncached",
    "similarity",
    "similarity_matrix",
]


# the penalized similarity at a fixed warp, with no optimization
rho_given_psi = rho_parts


def similarity(f: Curve, g: Curve, lambda0: float) -> SimilarityEntry:
    """Maximized penalized similarity of one pair: a build of that pair alone
    (`final_points`, its starts shared with helper processes on spare CPUs),
    and its warp picked from its rows (`optimize_warping`)."""
    (rows,) = final_points([(f, g)], lambda0)
    return optimize_warping(rows)


class PairCache:
    """Content-addressed store of pair entries, shared across matrix rebuilds.

    Keys are curve contents and the penalty parameter, so entries survive
    combination/updating passes for curves that did not change.
    Each entry is stored under both orders of the pair.
    """

    def __init__(self):
        self._store: dict = {}

    def get(self, f: Curve, g: Curve, lambda0: float) -> Optional[SimilarityEntry]:
        return self._store.get((f.content_key, g.content_key, float(lambda0)))

    def put(self, f: Curve, g: Curve, lambda0: float, entry: SimilarityEntry):
        # written second, so a pair of equal contents reads the entry as given
        self._store[(g.content_key, f.content_key, float(lambda0))] = entry.swapped()
        self._store[(f.content_key, g.content_key, float(lambda0))] = entry


class SimilarityMatrix:
    """Similarities of all pairs of a curve collection: rho as one symmetric
    array over the sorted ids (diagonal 1), and the aligning warp of every
    ordered pair.

    `entries` maps each unordered pair of distinct `ids` once, in either
    order, to its SimilarityEntry; any other set of keys is invalid input.
    """

    def __init__(self, entries: dict, ids: list):
        self.row = {curve_id: i for i, curve_id in enumerate(sorted(ids))}
        n = len(self.row)
        pairs = {frozenset(key) for key in entries}
        if len(pairs) != len(entries) or pairs != set(
            map(frozenset, itertools.combinations(self.row, 2))
        ):
            raise InvalidInputError("need one similarity entry per pair of distinct ids")
        self.array = np.eye(n)
        self._warps = {}
        for (a, b), entry in entries.items():
            i, j = self.row[a], self.row[b]
            self.array[i, j] = self.array[j, i] = entry.rho
            self._warps[a, b] = entry.warp
            self._warps[b, a] = entry.warp.swapped()

    def rho(self, a, b) -> float:
        return self.array.item(self.row[a], self.row[b])

    def warp(self, a, b) -> Warping:
        """The warp aligning curve a to curve b."""
        return self._warps[a, b]

    def values(self) -> list:
        """Pair similarities in row-major order over the upper triangle."""
        return self.array[np.triu_indices(len(self.row), 1)].tolist()

    def mean_rho(self) -> float:
        return float(np.mean(self.values()))


def _pairs(curves) -> list:
    """Every unordered pair of `curves`, in id order: (f, g) with f.id < g.id."""
    curves = sorted(curves, key=lambda c: c.id)
    return [(f, g) for i, f in enumerate(curves) for g in curves[i + 1 :]]


def search_uncached(curve_lists, lambda0: float, cache: PairCache) -> None:
    """Compute and store in `cache` the entry of every pair of each curve
    list that `cache` lacks.

    The uncached pairs, each pair of curve contents once in either order, are
    collected in list order and, within a list, in pair order; they go
    through one search (`final_points`: one set of helper processes for the
    whole build, each process scoring the candidates it searched), and each
    pair's warp is then picked from its rows in that order.
    """
    uncached = {}  # one pair per pair of curve contents
    for curves in curve_lists:
        for f, g in _pairs(curves):
            key = (f.content_key, g.content_key)
            if key[::-1] not in uncached and cache.get(f, g, lambda0) is None:
                uncached.setdefault(key, (f, g))
    todo = list(uncached.values())
    for (f, g), rows in zip(todo, final_points(todo, lambda0)):
        cache.put(f, g, lambda0, optimize_warping(rows))


def similarity_matrix(
    curves, lambda0: float, cache: Optional[PairCache] = None
) -> SimilarityMatrix:
    """Fetch from `cache` (a fresh one when none is given), or compute and
    store there (`search_uncached`), the entry of every unordered pair."""
    cache = PairCache() if cache is None else cache
    curves = sorted(curves, key=lambda c: c.id)
    if len(curves) < 2:
        raise InvalidInputError("need at least 2 curves for a similarity matrix")
    search_uncached([curves], lambda0, cache)
    entries = {(f.id, g.id): cache.get(f, g, lambda0) for f, g in _pairs(curves)}
    return SimilarityMatrix(entries, [c.id for c in curves])
