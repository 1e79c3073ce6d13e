"""Centered and warp-weighted inner products on the shared grid.

All integrals in the package are composite trapezoid sums on the same grid, so
discretization errors cancel in comparisons.  `weights` is always the trapezoid
weight vector of the grid (see splines.Grid).
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVarianceError

ZERO_NORM_TOL = 1e-12


def sum_in_order(values) -> float:
    """The values added left to right from 0.0, one rounding per addition.

    This is builtin `sum` up to Python 3.11; from 3.12 `sum` compensates the
    rounding of float terms (`sum([1e16, 1.0, -1e16])` is 1.0 there, 0.0
    here), which would let tie-breaks and result bytes depend on the
    interpreter.
    """
    acc = 0.0
    for x in values:
        acc += x
    return acc


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


def warp_weighted_rows(
    g: np.ndarray, dpsi: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Rows v with f @ v[l] = <f, g_l>_d for every f, where d = dpsi[l], g is
    one curve (g_l = g) or one curve per row of dpsi, and <f, g>_d is the
    warp-weighted centered inner product sum w*d*(f - m_d(f))*(g - m_d(g)).

    With m_d(f) = sum w*d*f, expanding the centered product gives
    <f, g>_d = sum w*d*f*g - m_d(f)*m_d(g)*(2 - sum w*d),
    so v[l] = w*d*(g_l - m_d(g_l)*(2 - sum w*d)).
    """
    wd = weights * dpsi
    means = (wd * g).sum(axis=1)
    return wd * (g - (means * (2.0 - wd.sum(axis=1)))[:, None])
