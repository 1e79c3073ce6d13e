"""Clamped B-spline representation, evaluation, differentiation and least-squares
fitting on the unit interval.

All splines use an open uniform (clamped) knot vector on [0, 1], so the value at
0 is the first coefficient and the value at 1 is the last one.  That property is
what lets warping functions pin their endpoints exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import BSpline

from .errors import (
    InvalidInputError,
    InvalidKnotsError,
    SingularFitError,
    UnsupportedDegreeError,
)

# Fits with a larger condition estimate are rejected as numerically meaningless.
MAX_CONDITION = 1e12

_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class SplineSettings:
    """Knot layout shared by a whole run.

    Shape curves are cubic with 16 equally spaced interior knots; warping
    functions are quadratic with 3, and their inverses quadratic with 23.
    """

    shape_degree: int = 3
    shape_knots: int = 16
    warp_degree: int = 2
    warp_knots: int = 3
    inverse_knots: int = 23

    def shape_interior(self) -> np.ndarray:
        return uniform_interior_knots(self.shape_knots)

    def warp_interior(self) -> np.ndarray:
        return uniform_interior_knots(self.warp_knots)

    def inverse_interior(self) -> np.ndarray:
        return uniform_interior_knots(self.inverse_knots)


DEFAULT_SPLINES = SplineSettings()


def uniform_interior_knots(count: int) -> np.ndarray:
    """`count` equally spaced knots strictly inside (0, 1)."""
    if count < 0:
        raise InvalidKnotsError(f"negative knot count: {count}")
    return np.linspace(0.0, 1.0, count + 2)[1:-1]


@dataclass(eq=False)
class Grid:
    """Shared evaluation grid on [0, 1] with cached trapezoid weights."""

    points: np.ndarray
    weights: np.ndarray
    key: bytes

    def __len__(self) -> int:
        return len(self.points)


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    w = np.zeros_like(points)
    d = np.diff(points)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def check_time_points(points) -> np.ndarray:
    """The points as a float array, once they are checked to span [0, 1]:
    1-D, at least 4 of them, strictly increasing, ends within 1e-9 of 0 and 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) < 4:
        raise InvalidInputError("need at least 4 time points")
    if np.any(np.diff(pts) <= 0):
        raise InvalidInputError("time points must be strictly increasing")
    if abs(pts[0]) > _EDGE_TOL or abs(pts[-1] - 1.0) > _EDGE_TOL:
        raise InvalidInputError("time points must start at 0 and end at 1")
    return pts


def make_grid(points) -> Grid:
    pts = check_time_points(points).copy()
    pts[0], pts[-1] = 0.0, 1.0
    return Grid(points=pts, weights=trapezoid_weights(pts), key=pts.tobytes())


def uniform_grid(n: int) -> Grid:
    return make_grid(np.linspace(0.0, 1.0, n))


def knot_vector(degree: int, interior_knots: np.ndarray) -> np.ndarray:
    interior = np.asarray(interior_knots, dtype=float)
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def n_basis(degree: int, interior_knots) -> int:
    return len(interior_knots) + degree + 1


@dataclass(eq=False)
class SplineRep:
    """A spline as degree + interior knots + coefficients (clamped on [0, 1])."""

    degree: int
    interior_knots: np.ndarray
    coefficients: np.ndarray

    @cached_property
    def knots(self) -> np.ndarray:
        return knot_vector(self.degree, self.interior_knots)

    @cached_property
    def _bspline(self) -> BSpline:
        # clamped knots from knot_vector and float coefficient arrays pass the
        # validating constructor unchanged; skipping it saves ~17 us a spline
        return BSpline.construct_fast(
            self.knots, self.coefficients, self.degree, extrapolate=False
        )

    def __call__(self, x) -> np.ndarray:
        return self._bspline(np.clip(x, 0.0, 1.0))

    @property
    def n_basis(self) -> int:
        return len(self.coefficients)


def _check_interior(interior_knots: np.ndarray) -> np.ndarray:
    interior = np.asarray(interior_knots, dtype=float)
    if interior.size:
        if np.any(np.diff(interior) <= 0):
            raise InvalidKnotsError("interior knots must be strictly increasing")
        if interior[0] <= 0.0 or interior[-1] >= 1.0:
            raise InvalidKnotsError("interior knots must lie strictly inside (0, 1)")
    return interior


def basis_matrix(x, degree: int, interior_knots) -> np.ndarray:
    """Dense matrix of clamped B-spline basis values, rows = points, cols = basis.

    Every row sums to 1 (partition of unity) and all entries are in [0, 1].
    """
    if degree < 1:
        raise UnsupportedDegreeError(f"degree must be >= 1, got {degree}")
    interior = _check_interior(interior_knots)
    pts = np.asarray(x, dtype=float)
    if np.any(pts < -_EDGE_TOL) or np.any(pts > 1.0 + _EDGE_TOL):
        raise InvalidInputError("evaluation points must lie in [0, 1]")
    pts = np.clip(pts, 0.0, 1.0)
    t = knot_vector(degree, interior)
    return BSpline.design_matrix(pts, t, degree).toarray()


def fit_least_squares(x, y, weights, degree: int, interior_knots) -> SplineRep:
    """Weighted least-squares spline fit to scattered samples.

    Solved through an orthogonal factorization; raises SingularFitError when the
    design is rank deficient or its condition estimate exceeds MAX_CONDITION.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.shape != y.shape or x.shape != w.shape:
        raise InvalidInputError("samples and weights must have matching shapes")
    if np.any(w <= 0):
        raise InvalidInputError("weights must be positive")
    interior = _check_interior(interior_knots)
    nb = n_basis(degree, interior)
    if len(x) < nb:
        raise InvalidInputError(
            f"need at least {nb} samples to fit {nb} basis functions, got {len(x)}"
        )
    design = basis_matrix(x, degree, interior)
    sw = np.sqrt(w)
    coef, _, rank, sv = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if rank < nb or cond > MAX_CONDITION:
        raise SingularFitError(
            f"singular least-squares design (rank {rank}/{nb}, cond {cond:.3e})"
        )
    return SplineRep(degree=degree, interior_knots=interior, coefficients=coef)


def evaluate(spline: SplineRep, x) -> np.ndarray:
    """De Boor evaluation of the spline at points in [0, 1]."""
    pts = np.asarray(x, dtype=float)
    if np.any(pts < -_EDGE_TOL) or np.any(pts > 1.0 + _EDGE_TOL):
        raise InvalidInputError("evaluation points must lie in [0, 1]")
    return spline(pts)


def derivative(spline: SplineRep) -> SplineRep:
    """Analytic derivative, one degree lower on the same interior knots."""
    if spline.degree < 1:
        raise UnsupportedDegreeError("cannot differentiate a degree-0 spline")
    der = spline._bspline.derivative(1)
    nb = n_basis(spline.degree - 1, spline.interior_knots)
    return SplineRep(
        degree=spline.degree - 1,
        interior_knots=spline.interior_knots,
        coefficients=np.asarray(der.c[:nb], dtype=float),
    )
