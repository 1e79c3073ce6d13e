"""Clamped B-spline representation, evaluation, differentiation and least-squares
fitting on the unit interval.

All splines use an open (clamped) knot vector on [0, 1], so the value at 0 is
the first coefficient and the value at 1 is the last one.  That property is
what lets warping functions pin their endpoints exactly.

A spline space is one `Layout` (degree and interior knots), shared by every
spline in it and compared by identity; it caches its knot vector and, per
grid, its design matrices.  The package uses three: `SHAPE` here, the cubic
shape space on 16 equally spaced interior knots, and `warping.WARP` and
`warping.INVERSE`.

scipy is used only through its compiled module `scipy.interpolate._dierckx`,
loaded from its file without running scipy's package initializers (importing
`scipy.interpolate` would load scipy's optimize, sparse and linalg
subpackages too).  Its `evaluate_spline` and `data_matrix` are the routines
`BSpline.__call__` and `BSpline.design_matrix` end in, so values and designs
keep `BSpline`'s bytes.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidKnotsError,
    SingularFitError,
    UnsupportedDegreeError,
)

# Fits with a larger condition estimate are rejected as numerically meaningless.
MAX_CONDITION = 1e12

_EDGE_TOL = 1e-9

_COMPILED = "scipy.interpolate._dierckx"


def _compiled_splines():
    """scipy's compiled spline module, as already imported or else from its
    file.  It is put in `sys.modules`, so a later `import scipy.interpolate`
    uses this module object instead of loading the extension again."""
    module = sys.modules.get(_COMPILED)
    if module is None:
        spec = importlib.util.find_spec("scipy")  # a top-level find imports nothing
        paths = (
            os.path.join(folder, "interpolate", "_dierckx" + suffix)
            for folder in (spec and spec.submodule_search_locations) or ()
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        )
        path = next(filter(os.path.isfile, paths), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(_COMPILED, path)
            module = sys.modules[_COMPILED] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    if not (hasattr(module, "evaluate_spline") and hasattr(module, "data_matrix")):
        raise ImportError(
            f"curveclust needs {_COMPILED} with evaluate_spline and data_matrix "
            "(scipy >= 1.15)",
            name=_COMPILED,
        )
    return module


_compiled = _compiled_splines()


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
    1-D, at least 4 of them, finite, strictly increasing, ends within 1e-9 of
    0 and 1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) < 4:
        raise InvalidInputError("need at least 4 time points")
    # NaN fails every comparison below, so it would pass them
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("time points must be finite")
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Layout:
    """A clamped spline space on [0, 1]: the degree and the interior knots.

    `interior` is a read-only copy of the knots given, checked to be strictly
    increasing and strictly inside (0, 1).  The designs of `on_grid` and
    `derivative_on_grid` are built once per grid and kept read-only.
    """

    degree: int
    interior: np.ndarray
    _designs: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        interior = np.array(self.interior, dtype=float)
        if interior.size:
            if np.any(np.diff(interior) <= 0):
                raise InvalidKnotsError("interior knots must be strictly increasing")
            if interior[0] <= 0.0 or interior[-1] >= 1.0:
                raise InvalidKnotsError("interior knots must lie strictly inside (0, 1)")
        object.__setattr__(self, "interior", _read_only(interior))

    @cached_property
    def knots(self) -> np.ndarray:
        ends = self.degree + 1
        return _read_only(np.concatenate([np.zeros(ends), self.interior, np.ones(ends)]))

    @cached_property
    def size(self) -> int:
        """The number of basis functions."""
        return len(self.interior) + self.degree + 1

    @cached_property
    def lower(self) -> "Layout":
        """The same interior knots one degree lower: the derivatives' space."""
        return Layout(self.degree - 1, self.interior)

    def basis(self, x) -> np.ndarray:
        """Dense matrix of the basis values at points in [0, 1], rows = points,
        cols = basis.

        Every row sums to 1 (partition of unity) and all entries are in
        [0, 1].  The bytes are `BSpline.design_matrix(...).toarray()`'s: the
        same compiled routine gives each row's k + 1 nonzero values and their
        first column, and they are added into zeros as the sparse-to-dense
        conversion adds them, without building the sparse matrix.
        """
        if self.degree < 1:
            raise UnsupportedDegreeError(f"degree must be >= 1, got {self.degree}")
        pts = np.asarray(x, dtype=float)
        if np.any(pts < -_EDGE_TOL) or np.any(pts > 1.0 + _EDGE_TOL):
            raise InvalidInputError("evaluation points must lie in [0, 1]")
        pts = np.clip(pts, 0.0, 1.0)
        k = self.degree
        rows, first, _ = _compiled.data_matrix(pts, self.knots, k, np.ones_like(pts), False)
        dense = np.zeros((len(pts), self.size))
        dense[np.arange(len(pts))[:, None], first[:, None] + np.arange(k + 1)] += rows
        return dense

    def _design(self, key, build) -> np.ndarray:
        design = self._designs.get(key)
        if design is None:
            design = self._designs[key] = _read_only(build())
        return design

    def on_grid(self, grid: Grid) -> np.ndarray:
        """`basis` at the grid's points."""
        return self._design(grid.key, lambda: self.basis(grid.points))

    def derivative_on_grid(self, grid: Grid) -> np.ndarray:
        """The design whose product with a spline's coefficients is the
        spline's derivative at the grid's points: `lower.on_grid` times the
        derivative coefficients (`_splder`) of the identity's columns."""
        return self._design(
            (grid.key, "derivative"),
            lambda: self.lower.on_grid(grid) @ _splder(self, np.eye(self.size)),
        )


def uniform_layout(degree: int, count: int) -> Layout:
    """The layout with `count` equally spaced knots strictly inside (0, 1)."""
    if count < 0:
        raise InvalidKnotsError(f"negative knot count: {count}")
    return Layout(degree, np.linspace(0.0, 1.0, count + 2)[1:-1])


# The shape space of every smoothed, refit and combined curve.
SHAPE = uniform_layout(3, 16)


def spline_evaluator(spline: "SplineRep"):
    """A function giving the spline's values at points in [0, 1], in the
    shape of the points.

    It calls the compiled routine that `BSpline.__call__` ends in, so its
    bytes are `BSpline.__call__`'s, without that method's argument handling
    (about 5 us of a 100-point call).
    """
    t, k = spline.layout.knots, spline.layout.degree
    c = np.ascontiguousarray(spline.coefficients).reshape(-1, 1)

    def values(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.ascontiguousarray(x.ravel())
        return _compiled.evaluate_spline(t, c, k, flat, 0, False).reshape(x.shape)

    return values


@dataclass(eq=False)
class SplineRep:
    """A spline as layout + coefficients (clamped on [0, 1])."""

    layout: Layout
    coefficients: np.ndarray

    # for points already in [0, 1]; calling the spline clips them first
    evaluator = cached_property(spline_evaluator)

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.clip(x, 0.0, 1.0))


def fit_least_squares(x, y, weights, layout: Layout, design=None) -> SplineRep:
    """Weighted least-squares spline fit to scattered samples.

    `design` is `layout.basis(x)` when the caller already has it.  Solved
    through an orthogonal factorization; raises SingularFitError when the
    design is rank deficient or its condition estimate exceeds MAX_CONDITION.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.shape != y.shape or x.shape != w.shape:
        raise InvalidInputError("samples and weights must have matching shapes")
    if np.any(w <= 0):
        raise InvalidInputError("weights must be positive")
    nb = layout.size
    if len(x) < nb:
        raise InvalidInputError(
            f"need at least {nb} samples to fit {nb} basis functions, got {len(x)}"
        )
    if design is None:
        design = layout.basis(x)
    sw = np.sqrt(w)
    coef, _, rank, sv = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if rank < nb or cond > MAX_CONDITION:
        raise SingularFitError(
            f"singular least-squares design (rank {rank}/{nb}, cond {cond:.3e})"
        )
    return SplineRep(layout, coef)


def derivative(spline: SplineRep) -> SplineRep:
    """Analytic derivative, one degree lower on the same interior knots
    (`layout.lower`).

    The coefficients are scipy's `splder` (what `BSpline.derivative` calls),
    term for term, without building the derivative's BSpline.
    """
    layout = spline.layout
    if layout.degree < 1:
        raise UnsupportedDegreeError("cannot differentiate a degree-0 spline")
    return SplineRep(layout.lower, _splder(layout, np.asarray(spline.coefficients, dtype=float)))


def _splder(layout: Layout, c: np.ndarray) -> np.ndarray:
    """The derivative's coefficients of the coefficients along c's first axis:
    scipy's `splder` expression, term for term."""
    t, k = layout.knots, layout.degree
    span = t[k + 1 : -1] - t[1 : -k - 1]
    return (c[1:] - c[:-1]) * k / span.reshape(span.shape + (1,) * (c.ndim - 1))
