"""Monotone warping functions on [0, 1] and the penalized-similarity optimizer.

A warp is a quadratic spline with positive coefficient increments, so it is
strictly increasing and pins 0 -> 0, 1 -> 1 exactly by construction.  Raw
parameters are unconstrained reals: increments are exp(raw) scaled by the
Greville spacing of the knot layout, which makes all-equal raw parameters the
exact identity.  The inverse is approximated by least squares in a finer
quadratic spline space.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .curves import Curve
from .errors import (
    InvalidInputError,
    InvalidParameterError,
    MonotonicityError,
    WarpRangeError,
    ZeroVarianceError,
)
from .products import ZERO_NORM_TOL, centered_norm, corr
from .splines import (
    DEFAULT_SPLINES,
    Grid,
    SplineRep,
    SplineSettings,
    basis_matrix,
    derivative,
    evaluate,
    knot_vector,
)

_DENSE_N = 501
_DENSE = np.linspace(0.0, 1.0, _DENSE_N)

_RANGE_TOL = 1e-9

# Derivative-free search settings of the warp optimizer: the exponents of the
# power-warp starts, the objective evaluations each start may spend, the first
# simplex edge, and Nelder-Mead's stopping tolerances.
_POWER_STARTS = (0.7, 0.85, 1.0, 1.18, 1.43)
_BUDGET_PER_START = 400
_SIMPLEX_STEP = 0.3
_XATOL = 1e-7
_FATOL = 1e-12


@dataclass(eq=False)
class Warping:
    """Forward warp spline paired with a spline approximation of its inverse."""

    forward: SplineRep
    inverse: SplineRep

    def swapped(self) -> "Warping":
        """The same time correspondence read in the opposite direction."""
        return Warping(forward=self.inverse, inverse=self.forward)


class RhoParts(NamedTuple):
    rho: float
    r_fwd: float
    r_inv: float
    penalty_fwd: float
    penalty_inv: float


def greville_abscissae(degree: int, interior_knots: np.ndarray) -> np.ndarray:
    t = knot_vector(degree, interior_knots)
    nb = len(interior_knots) + degree + 1
    return np.array([t[i + 1 : i + degree + 1].mean() for i in range(nb)])


def _difference_operator(degree: int, interior_knots: np.ndarray) -> np.ndarray:
    """Matrix mapping spline coefficients to derivative-spline coefficients."""
    t = knot_vector(degree, interior_knots)
    nb = len(interior_knots) + degree + 1
    op = np.zeros((nb - 1, nb))
    for i in range(nb - 1):
        span = t[i + degree + 1] - t[i + 1]
        op[i, i] = -degree / span
        op[i, i + 1] = degree / span
    return op


class _WarpWorkspace:
    """Cached matrices for fast warp/derivative evaluation on a fixed grid."""

    def __init__(self, grid: Grid, settings: SplineSettings):
        interior = settings.warp_interior()
        degree = settings.warp_degree
        self.interior = interior
        self.degree = degree
        self.basis = basis_matrix(grid.points, degree, interior)
        diff_op = _difference_operator(degree, interior)
        self.deriv = basis_matrix(grid.points, degree - 1, interior) @ diff_op
        self.greville_steps = np.diff(greville_abscissae(degree, interior))
        self.n_raw = len(self.greville_steps)


_workspaces: dict = {}


def _workspace(grid: Grid, settings: SplineSettings) -> _WarpWorkspace:
    key = (grid.key, settings)
    ws = _workspaces.get(key)
    if ws is None:
        ws = _WarpWorkspace(grid, settings)
        _workspaces[key] = ws
    return ws


def n_raw_params(settings: SplineSettings = DEFAULT_SPLINES) -> int:
    return len(settings.warp_interior()) + settings.warp_degree


def _coefficients_from_raw(
    raw: np.ndarray, greville_steps: np.ndarray, coef: np.ndarray | None = None
) -> np.ndarray:
    """Warp coefficients for `raw`, written into `coef` when one is given."""
    if coef is None:
        coef = np.empty(len(raw) + 1)
    coef[0] = 0.0
    tail = coef[1:]
    # ufunc calls without the ndarray.max / np.cumsum wrappers: this runs once
    # per objective evaluation
    np.subtract(raw, np.maximum.reduce(raw), out=tail)
    np.exp(tail, out=tail)
    np.multiply(tail, greville_steps, out=tail)
    np.add.accumulate(tail, out=tail)
    np.divide(tail, coef[-1], out=tail)
    return coef


def make_warping(raw_params, settings: SplineSettings = DEFAULT_SPLINES) -> Warping:
    """Build a warp from unconstrained parameters.

    Coefficient increments are exp(raw) times the Greville spacing, rescaled so
    the coefficients run 0 to 1: boundary values hold exactly, monotonicity by
    construction, and all-equal parameters give the exact identity.
    """
    raw = np.asarray(raw_params, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise InvalidParameterError("warp parameters must be finite")
    steps = np.diff(greville_abscissae(settings.warp_degree, settings.warp_interior()))
    if raw.shape != steps.shape:
        raise InvalidParameterError(
            f"expected {len(steps)} warp parameters, got {raw.shape}"
        )
    forward = SplineRep(
        degree=settings.warp_degree,
        interior_knots=settings.warp_interior(),
        coefficients=_coefficients_from_raw(raw, steps),
    )
    return Warping(forward=forward, inverse=invert_warping(forward, settings))


def identity_warping(settings: SplineSettings = DEFAULT_SPLINES) -> Warping:
    fwd = SplineRep(
        degree=settings.warp_degree,
        interior_knots=settings.warp_interior(),
        coefficients=greville_abscissae(settings.warp_degree, settings.warp_interior()),
    )
    inv = SplineRep(
        degree=settings.warp_degree,
        interior_knots=settings.inverse_interior(),
        coefficients=greville_abscissae(settings.warp_degree, settings.inverse_interior()),
    )
    return Warping(forward=fwd, inverse=inv)


def _pinned_fit(x, y, degree, interior, left, right) -> np.ndarray:
    """Least-squares spline fit with the first/last coefficients pinned."""
    design = basis_matrix(x, degree, interior)
    rhs = y - left * design[:, 0] - right * design[:, -1]
    mid, *_ = np.linalg.lstsq(design[:, 1:-1], rhs, rcond=None)
    return np.concatenate([[left], mid, [right]])


def invert_warping(psi: SplineRep, settings: SplineSettings = DEFAULT_SPLINES) -> SplineRep:
    """Quadratic-spline approximation of the inverse of a monotone warp."""
    values = evaluate(psi, _DENSE)
    if np.any(np.diff(values) <= 0.0):
        raise MonotonicityError("warp is not strictly increasing on [0, 1]")
    if abs(values[0]) > 1e-6 or abs(values[-1] - 1.0) > 1e-6:
        raise MonotonicityError("warp does not satisfy psi(0)=0, psi(1)=1")
    values = values.copy()
    values[0], values[-1] = 0.0, 1.0
    coef = _pinned_fit(values, _DENSE, settings.warp_degree, settings.inverse_interior(), 0.0, 1.0)
    # spline values live in the convex hull of the coefficients, so clipping
    # keeps the approximate inverse inside [0, 1]
    return SplineRep(
        degree=settings.warp_degree,
        interior_knots=settings.inverse_interior(),
        coefficients=np.clip(coef, 0.0, 1.0),
    )


def power_warp_raw(alpha: float, settings: SplineSettings = DEFAULT_SPLINES) -> np.ndarray:
    """Raw parameters whose warp is the least-squares projection of t**alpha."""
    steps = np.diff(greville_abscissae(settings.warp_degree, settings.warp_interior()))
    if alpha == 1.0:
        return np.zeros_like(steps)
    coef = _pinned_fit(
        _DENSE, _DENSE**alpha, settings.warp_degree, settings.warp_interior(), 0.0, 1.0
    )
    increments = np.maximum(np.diff(coef), 1e-4 * steps)
    raw = np.log(increments / steps)
    raw -= raw.mean()
    return raw


def _penalty_of_spline(spline: SplineRep, grid: Grid) -> float:
    dvals = evaluate(derivative(spline), grid.points)
    return float(grid.weights @ (dvals - 1.0) ** 2)


def roughness_penalty(psi: Warping, grid: Grid, direction: str = "forward") -> float:
    """Integrated squared deviation of the warp derivative from 1 (trapezoid)."""
    if direction == "forward":
        return _penalty_of_spline(psi.forward, grid)
    if direction == "inverse":
        return _penalty_of_spline(psi.inverse, grid)
    raise InvalidInputError(f"unknown direction: {direction!r}")


def _checked_warp_values(spline: SplineRep, points: np.ndarray) -> np.ndarray:
    vals = spline(points)
    if np.any(vals < -_RANGE_TOL) or np.any(vals > 1.0 + _RANGE_TOL):
        raise WarpRangeError("warp leaves the unit interval on the grid")
    return np.clip(vals, 0.0, 1.0)


def rho_parts(f: Curve, g: Curve, warp: Warping, lambda0: float) -> RhoParts:
    """Penalized similarity of f and g at a fixed warp, with all parts.

    Forward part correlates f with g evaluated at warped grid points; the
    reverse part correlates g with f evaluated through the approximate inverse.
    """
    if f.grid.key != g.grid.key:
        raise InvalidInputError("curves must share the same grid")
    grid = f.grid
    g_warped = g.spline(_checked_warp_values(warp.forward, grid.points))
    r_fwd = corr(f.samples, g_warped, grid.weights)
    p_fwd = _penalty_of_spline(warp.forward, grid)
    f_unwarped = f.spline(_checked_warp_values(warp.inverse, grid.points))
    r_inv = corr(g.samples, f_unwarped, grid.weights)
    p_inv = _penalty_of_spline(warp.inverse, grid)
    rho = 0.5 * ((r_fwd - lambda0 * p_fwd) + (r_inv - lambda0 * p_inv))
    return RhoParts(rho, r_fwd, r_inv, p_fwd, p_inv)


def _proxy_objective(f: Curve, g: Curve, lambda0: float, ws: _WarpWorkspace):
    """Fast negative-similarity objective without building the inverse spline.

    The reverse-direction correlation and penalty are computed by change of
    variables with the forward derivative as weight, which is the same quantity
    up to inverse-approximation error.

    The objective runs about 2,000 times per pair, so its work buffers are
    allocated once here and each step writes into them.  The arithmetic (every
    product, dot product and operand order) is fixed: results carry
    full-precision values, so a change here must keep the objective
    bit-identical (tests/test_warping.py holds the reference).
    """
    w = f.grid.weights
    fs = f.samples
    f_centered = fs - w @ fs
    f_norm = np.sqrt(w @ (f_centered * f_centered))
    g_bspline = g.spline._bspline
    basis, deriv, steps = ws.basis, ws.deriv, ws.greville_steps
    min_denom = ZERO_NORM_TOL**2
    # ndarray.min without its Python wrapper; np.dot takes the same BLAS path
    # as 1-D @
    amin, dot = np.minimum.reduce, np.dot

    coef = np.empty(len(steps) + 1)
    psi, dpsi, gc, wd, gcw, fcw, tmp = np.empty((7, len(w)))

    def objective(raw: np.ndarray) -> float:
        _coefficients_from_raw(raw, steps, coef)
        np.matmul(basis, coef, out=psi)
        np.matmul(deriv, coef, out=dpsi)
        if not amin(dpsi) > 1e-9:
            return 2.0  # NaN, or numerically flat somewhere; 1/dpsi would blow up
        np.clip(psi, 0.0, 1.0, out=psi)
        g_warped = g_bspline(psi)
        np.subtract(g_warped, dot(w, g_warped), out=gc)
        np.multiply(gc, gc, out=tmp)
        g_norm = math.sqrt(dot(w, tmp))
        if g_norm <= ZERO_NORM_TOL:
            return 2.0
        np.multiply(f_centered, gc, out=tmp)
        r_fwd = min(max(dot(w, tmp) / (f_norm * g_norm), -1.0), 1.0)
        np.subtract(dpsi, 1.0, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        p_fwd = dot(w, tmp)
        np.multiply(w, dpsi, out=wd)
        np.subtract(g_warped, dot(wd, g_warped), out=gcw)
        np.subtract(fs, dot(wd, fs), out=fcw)
        np.multiply(gcw, gcw, out=tmp)
        g_var = dot(wd, tmp)
        np.multiply(fcw, fcw, out=tmp)
        denom = math.sqrt(g_var * dot(wd, tmp))
        if denom <= min_denom:
            return 2.0
        np.multiply(gcw, fcw, out=tmp)
        r_inv = min(max(dot(wd, tmp) / denom, -1.0), 1.0)
        np.divide(1.0, dpsi, out=tmp)
        np.subtract(tmp, 1.0, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        p_inv = dot(wd, tmp)
        rho = 0.5 * ((r_fwd - lambda0 * p_fwd) + (r_inv - lambda0 * p_inv))
        return -rho if math.isfinite(rho) else 2.0

    return objective


def _budgeted_nelder_mead(objective, x0: np.ndarray) -> np.ndarray:
    remaining = _BUDGET_PER_START
    x, fx = x0, objective(x0)
    step = _SIMPLEX_STEP
    while remaining > 2 * (len(x0) + 1):
        simplex = np.vstack([x] + [x + step * e for e in np.eye(len(x0))])
        res = minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "maxfev": remaining,
                "xatol": _XATOL,
                "fatol": _FATOL,
                "initial_simplex": simplex,
            },
        )
        remaining -= res.nfev
        if res.fun >= fx - 1e-13:
            break
        x, fx = res.x, res.fun
        step = max(step / 3.0, 1e-3)
    return x


_start_cache: dict = {}


def _start_points(settings: SplineSettings) -> tuple:
    """The distinct starts of the multi-start search (identity first) and the
    warp of each.

    Built once per spline settings and shared by every later search, so the
    arrays are read-only.
    """
    cached = _start_cache.get(settings)
    if cached is not None:
        return cached
    starts = []
    seen = set()
    for alpha in _POWER_STARTS:
        raw = power_warp_raw(alpha, settings)
        if raw.tobytes() not in seen:
            seen.add(raw.tobytes())
            starts.append(raw)
    identity = np.zeros(n_raw_params(settings))
    if identity.tobytes() not in seen:
        starts.insert(0, identity)
    warps = [make_warping(raw, settings) for raw in starts]
    for raw, warp in zip(starts, warps):
        raw.flags.writeable = False
        warp.forward.coefficients.flags.writeable = False
        warp.inverse.coefficients.flags.writeable = False
    cached = _start_cache[settings] = (starts, warps)
    return cached


def _spare_cpus() -> int:
    """CPUs of this process's affinity mask beyond the one it runs on."""
    if not hasattr(os, "sched_getaffinity"):  # no affinity mask here; run alone
        return 0
    return len(os.sched_getaffinity(0)) - 1


def _run_starts(f, g, lambda0, ws, starts) -> list:
    """The Nelder-Mead final point of each of `starts`."""
    objective = _proxy_objective(f, g, lambda0, ws)
    return [_budgeted_nelder_mead(objective, raw) for raw in starts]


def _fork_helper(f, g, lambda0, ws, starts) -> tuple:
    """Fork a process that runs `starts`, writes the bytes of their final
    points to a pipe and exits; returns its pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # interrupts are the caller's
            with open(write_end, "wb") as pipe:
                pipe.write(np.array(_run_starts(f, g, lambda0, ws, starts)).tobytes())
            code = 0
        finally:
            os._exit(code)  # never back into the caller's code
    os.close(write_end)
    return pid, open(read_end, "rb")


def _final_points(f, g, lambda0, ws, starts) -> list:
    """The Nelder-Mead final point of each start, in start order.

    With k helpers (one per spare CPU, at most one per start after the
    first) the starts are dealt round-robin: the caller runs positions
    0, k + 1, 2k + 2, ... and helper share i runs positions i, i + k + 1, ....
    Each helper is forked for this search and exits at its end.  A start runs
    the same code on the same inputs wherever it runs, so the final points do
    not depend on k.  A helper whose pipe ends short has died, and its share
    runs in the caller; if the caller raises, the helpers still running are
    killed and reaped.
    """
    share = min(_spare_cpus(), len(starts) - 1) + 1
    helpers = []  # (pid, pipe) of each helper not yet reaped, in share order
    try:
        for i in range(1, share):
            helpers.append(_fork_helper(f, g, lambda0, ws, starts[i::share]))
        finals = [None] * len(starts)
        finals[::share] = _run_starts(f, g, lambda0, ws, starts[::share])
        for i in range(1, share):
            pid, pipe = helpers[0]
            data = pipe.read()
            pipe.close()
            os.waitpid(pid, 0)
            del helpers[0]
            mine = starts[i::share]
            if len(data) == 8 * ws.n_raw * len(mine):
                finals[i::share] = list(np.frombuffer(data).reshape(len(mine), ws.n_raw))
            else:  # the helper died
                finals[i::share] = _run_starts(f, g, lambda0, ws, mine)
    finally:
        for pid, pipe in helpers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return finals


def optimize_warping(
    f: Curve,
    g: Curve,
    lambda0: float,
    settings: SplineSettings = DEFAULT_SPLINES,
) -> tuple:
    """Maximize the penalized similarity of f and g over the warp family.

    Nelder-Mead multi-start: identity plus projections of fixed power warps,
    shared with helper processes on spare CPUs (see `_final_points`).
    All start and final points are re-scored exactly (inverse spline included);
    the best exact value wins, so the result never falls below the identity
    alignment and matches rho_parts at the returned warp to machine precision.
    """
    if centered_norm(f.samples, f.grid.weights) <= ZERO_NORM_TOL or (
        centered_norm(g.samples, g.grid.weights) <= ZERO_NORM_TOL
    ):
        raise ZeroVarianceError("similarity is undefined for constant curves")
    ws = _workspace(f.grid, settings)
    starts, start_warps = _start_points(settings)

    seen = {raw.tobytes() for raw in starts}
    candidates = list(zip(starts, start_warps))
    for final in _final_points(f, g, lambda0, ws, starts):
        if final.tobytes() not in seen:
            seen.add(final.tobytes())
            candidates.append((final, None))

    best_warp, best_parts = None, None
    for raw, warp in candidates:
        try:
            if warp is None:
                warp = make_warping(raw, settings)
            parts = rho_parts(f, g, warp, lambda0)
        except (MonotonicityError, WarpRangeError, ZeroVarianceError):
            continue  # search drifted into a numerically flat warp
        if best_parts is None or parts.rho > best_parts.rho:
            best_warp, best_parts = warp, parts
    return best_warp, best_parts
