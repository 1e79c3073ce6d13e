"""Centered and warp-weighted inner products on the shared grid.

All integrals in the package are composite trapezoid sums on the same grid, so
discretization errors cancel in comparisons.  `weights` is always the trapezoid
weight vector of the grid (see splines.trapezoid_weights).
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVarianceError

ZERO_NORM_TOL = 1e-12


def center_inner(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> float:
    """Centered inner product: integral of (f - Ef)(g - Eg)."""
    fc = f - (weights @ f)
    gc = g - (weights @ g)
    return float(weights @ (fc * gc))


def centered_norm(f: np.ndarray, weights: np.ndarray) -> float:
    fc = f - (weights @ f)
    return float(np.sqrt(weights @ (fc * fc)))


def corr(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> float:
    """Correlation-type similarity of two sampled curves, clamped into [-1, 1]."""
    fc = f - (weights @ f)
    gc = g - (weights @ g)
    nf = np.sqrt(weights @ (fc * fc))
    ng = np.sqrt(weights @ (gc * gc))
    if nf <= ZERO_NORM_TOL or ng <= ZERO_NORM_TOL:
        raise ZeroVarianceError("correlation is undefined for a constant curve")
    return float(np.clip((weights @ (fc * gc)) / (nf * ng), -1.0, 1.0))


def warp_weighted_mean(f: np.ndarray, dpsi: np.ndarray, weights: np.ndarray) -> float:
    """Mean against the warp-derivative measure: integral of f * dpsi."""
    return float(weights @ (f * dpsi))


def warp_weighted_inner(
    f: np.ndarray, g: np.ndarray, dpsi: np.ndarray, weights: np.ndarray
) -> float:
    """Warp-weighted centered inner product (positive semidefinite, symmetric)."""
    fc = f - warp_weighted_mean(f, dpsi, weights)
    gc = g - warp_weighted_mean(g, dpsi, weights)
    return float(weights @ (fc * gc * dpsi))
