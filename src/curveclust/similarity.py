"""Pairwise penalized similarity: correlation of aligned curves minus the
time-variation penalty, symmetrized over direction, with matrix-level caching.

One warp is optimized per unordered pair; the opposite order reads the same
warp with its forward and inverse splines swapped, so the stored similarity is
symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import Curve
from .errors import InvalidInputError
from .warping import DEFAULT_SPLINES, RhoParts, Warping, optimize_warping, rho_parts

__all__ = [
    "SimilarityEntry",
    "SimilarityMatrix",
    "PairCache",
    "rho_given_psi",
    "similarity",
    "similarity_matrix",
]


@dataclass(eq=False)
class SimilarityEntry:
    """Cached similarity of an unordered pair, with the maximizing warp
    (aligning the first curve to the second) and its parts."""

    rho: float
    warp: Warping
    penalty_fwd: float
    penalty_inv: float
    r_fwd: float
    r_inv: float

    def swapped(self) -> "SimilarityEntry":
        return SimilarityEntry(
            rho=self.rho,
            warp=self.warp.swapped(),
            penalty_fwd=self.penalty_inv,
            penalty_inv=self.penalty_fwd,
            r_fwd=self.r_inv,
            r_inv=self.r_fwd,
        )


def _entry_from_parts(parts: RhoParts, warp: Warping) -> SimilarityEntry:
    return SimilarityEntry(
        rho=parts.rho,
        warp=warp,
        penalty_fwd=parts.penalty_fwd,
        penalty_inv=parts.penalty_inv,
        r_fwd=parts.r_fwd,
        r_inv=parts.r_inv,
    )


def rho_given_psi(f: Curve, g: Curve, psi: Warping, lambda0: float) -> SimilarityEntry:
    """Penalized similarity of f and g at a fixed warp (no optimization)."""
    return _entry_from_parts(rho_parts(f, g, psi, lambda0), psi)


def similarity(f: Curve, g: Curve, lambda0: float, settings=DEFAULT_SPLINES) -> SimilarityEntry:
    """Maximized penalized similarity, delegating to the warp optimizer."""
    warp, parts = optimize_warping(f, g, lambda0, settings=settings)
    return _entry_from_parts(parts, warp)


class PairCache:
    """Content-addressed store of pair entries, shared across matrix rebuilds.

    Keys include curve content, the penalty parameter and spline settings, so
    entries survive combination/updating passes for curves that did not change.
    Each entry is stored under both orders of the pair.
    """

    def __init__(self):
        self._store: dict = {}

    def get(self, f: Curve, g: Curve, lambda0: float, settings) -> Optional[SimilarityEntry]:
        key = (f.content_key, g.content_key, float(lambda0), settings)
        return self._store.get(key)

    def put(self, f: Curve, g: Curve, lambda0: float, settings, entry: SimilarityEntry):
        rest = (float(lambda0), settings)
        # written second, so a pair of equal contents reads the entry as given
        self._store[(g.content_key, f.content_key) + rest] = entry.swapped()
        self._store[(f.content_key, g.content_key) + rest] = entry


class SimilarityMatrix:
    """Similarities of all pairs of a curve collection: rho as one symmetric
    array over the sorted ids (diagonal 1), and the aligning warp of every
    ordered pair.

    `entries` maps each unordered pair of `ids`, in either order, to its
    SimilarityEntry.
    """

    def __init__(self, entries: dict, ids: list):
        self.row = {curve_id: i for i, curve_id in enumerate(sorted(ids))}
        n = len(self.row)
        if len(entries) != n * (n - 1) // 2:
            raise InvalidInputError("need one similarity entry per pair of ids")
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


def similarity_matrix(
    curves,
    lambda0: float,
    settings=DEFAULT_SPLINES,
    cache: Optional[PairCache] = None,
) -> SimilarityMatrix:
    """Compute (or fetch from cache) entries for every unordered pair."""
    curves = sorted(curves, key=lambda c: c.id)
    if len(curves) < 2:
        raise InvalidInputError("need at least 2 curves for a similarity matrix")
    entries = {}
    for i, f in enumerate(curves):
        for g in curves[i + 1 :]:
            entry = cache.get(f, g, lambda0, settings) if cache is not None else None
            if entry is None:
                entry = similarity(f, g, lambda0, settings=settings)
                if cache is not None:
                    cache.put(f, g, lambda0, settings, entry)
            entries[(f.id, g.id)] = entry
    return SimilarityMatrix(entries, [c.id for c in curves])
