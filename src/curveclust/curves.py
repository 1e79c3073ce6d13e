"""Curve objects: samples on the shared grid plus a spline representation,
with provenance of which original curves each one aggregates."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, InvalidInputError
from .products import centered_norm, ZERO_NORM_TOL
from .splines import SHAPE, Grid, Layout, SplineRep, fit_least_squares

# The largest sample magnitude a curve may have.  Squares and products of two
# curves' samples overflow (the largest float is about 1.8e308) from about
# 1e154, and every similarity would then read NaN; the bound leaves room for
# centering and for the grid and warp weights.
MAX_MAGNITUDE = 1e150


@dataclass(eq=False)
class Curve:
    id: int
    grid: Grid
    samples: np.ndarray
    spline: SplineRep
    members: frozenset  # ids of the original curves this curve stands for

    @property
    def n_orig(self) -> int:
        """The curve's weight: how many original curves it stands for."""
        return len(self.members)

    @cached_property
    def content_key(self) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        h.update(self.samples.tobytes())
        h.update(self.spline.coefficients.tobytes())
        return h.digest()


def fit_curve(
    curve_id: int,
    grid: Grid,
    x,
    y,
    weights,
    settings: Layout,
    members: frozenset,
    design=None,
) -> Curve:
    """The spline in `settings`, the shape layout, fit to (x, y) by weighted
    least squares, as a curve sampled on `grid`; `design` is the fit's basis
    matrix when the caller already has it."""
    spline = fit_least_squares(x, y, weights, settings, design)
    return Curve(curve_id, grid, spline(grid.points), spline, members)


def refit_on_grid(
    curve_id: int,
    grid: Grid,
    values: np.ndarray,
    settings: Layout = SHAPE,
    members: frozenset | None = None,
) -> Curve:
    """Project grid values onto the shape-spline space and re-evaluate; the
    curve stands for `members`, by default for itself alone."""
    if members is None:
        members = frozenset([curve_id])
    design = settings.on_grid(grid)
    return fit_curve(
        curve_id, grid, grid.points, values, np.ones_like(grid.points), settings,
        members, design,
    )


def smooth_curve(
    curve_id: int,
    data_points,
    values,
    grid: Grid,
    settings: Layout = SHAPE,
) -> Curve:
    """Ingest a raw observed curve: pre-smooth on its own time points, then
    evaluate on the shared run grid.  Constant curves are rejected, and so are
    curves with values beyond MAX_MAGNITUDE."""
    data_points = np.asarray(data_points, dtype=float)
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"curve {curve_id} contains non-finite values")
    if np.max(np.abs(values)) > MAX_MAGNITUDE:
        raise InvalidInputError(
            f"curve {curve_id} has values beyond {MAX_MAGNITUDE:g} in magnitude, "
            "where products of samples overflow; rescale the data"
        )
    curve = fit_curve(
        curve_id, grid, data_points, values, np.ones_like(data_points), settings,
        members=frozenset([curve_id]),
    )
    if centered_norm(curve.samples, grid.weights) <= ZERO_NORM_TOL:
        raise DegenerateDataError(f"curve {curve_id} is constant after smoothing")
    return curve


def normalize(curve: Curve) -> Curve:
    """Scale a curve to unit centered L2 seminorm (spline rescaled consistently)."""
    scale = centered_norm(curve.samples, curve.grid.weights)
    if scale <= ZERO_NORM_TOL:
        raise DegenerateDataError(f"curve {curve.id} has zero centered seminorm")
    if abs(scale - 1.0) < 1e-12:
        return curve  # keeps content keys stable across renormalization passes
    spline = replace(curve.spline, coefficients=curve.spline.coefficients / scale)
    return replace(curve, samples=curve.samples / scale, spline=spline)
