"""Monotone warping functions on [0, 1] and the penalized-similarity optimizer.

The warp family is fixed: a warp is a quadratic spline on 3 equally spaced
interior knots with positive coefficient increments, so it is strictly
increasing and pins 0 -> 0, 1 -> 1 exactly by construction.  Raw parameters
are unconstrained reals: increments are exp(raw) scaled by the Greville
spacing of the knot layout, which makes all-equal raw parameters the exact
identity.  The inverse is approximated by least squares in a finer quadratic
spline space, on 23 equally spaced interior knots.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal
from dataclasses import dataclass

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
    Grid,
    SplineRep,
    basis_matrix,
    derivative,
    evaluate,
    knot_vector,
    spline_evaluator,
    uniform_interior_knots,
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


@dataclass(eq=False)
class SimilarityEntry:
    """Penalized similarity of an ordered pair at one warp (aligning the first
    curve to the second), with its parts."""

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


def check_lambda0(lambda0: float) -> None:
    """Reject a penalty weight that is negative, NaN or infinite."""
    if not (math.isfinite(lambda0) and lambda0 >= 0):
        raise InvalidParameterError("lambda0 must be finite and nonnegative")


def greville_abscissae(degree: int, interior_knots: np.ndarray) -> np.ndarray:
    t = knot_vector(degree, interior_knots)
    nb = len(interior_knots) + degree + 1
    return np.array([t[i + 1 : i + degree + 1].mean() for i in range(nb)])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The warp family: every warp and every inverse shares these arrays.
WARP_DEGREE = 2
WARP_INTERIOR = _read_only(uniform_interior_knots(3))
INVERSE_INTERIOR = _read_only(uniform_interior_knots(23))
_GREVILLE_STEPS = _read_only(np.diff(greville_abscissae(WARP_DEGREE, WARP_INTERIOR)))


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


def _design_matrices(points: np.ndarray, interior: np.ndarray) -> tuple:
    """Value and derivative design matrices of warp-degree splines on
    `interior`: `basis @ coef` and `deriv @ coef` are psi and psi' at `points`."""
    basis = basis_matrix(points, WARP_DEGREE, interior)
    diff_op = _difference_operator(WARP_DEGREE, interior)
    return basis, basis_matrix(points, WARP_DEGREE - 1, interior) @ diff_op


class _WarpWorkspace:
    """Cached matrices for fast warp/derivative evaluation on a fixed grid, for
    both knot layouts of the family: a warp (`basis`, `deriv`) and an inverse
    (`inverse_basis`, `inverse_deriv`)."""

    def __init__(self, grid: Grid):
        self.basis, self.deriv = _design_matrices(grid.points, WARP_INTERIOR)
        self.inverse_basis, self.inverse_deriv = _design_matrices(
            grid.points, INVERSE_INTERIOR
        )


_workspaces: dict = {}


def _workspace(grid: Grid) -> _WarpWorkspace:
    ws = _workspaces.get(grid.key)
    if ws is None:
        ws = _workspaces[grid.key] = _WarpWorkspace(grid)
    return ws


def _has_layout(spline: SplineRep, interior: np.ndarray) -> bool:
    return spline.degree == WARP_DEGREE and (
        spline.interior_knots is interior
        or np.array_equal(spline.interior_knots, interior)
    )


def forward_on_grid(warps, grid: Grid) -> tuple:
    """psi (clipped into [0, 1]) and psi' of each warp's forward spline at the
    grid points, one row per warp, from the workspace's design matrices: one
    product per knot layout.  A swapped warp reads its inverse forward."""
    ws = _workspace(grid)
    psi = np.empty((len(warps), len(grid)))
    dpsi = np.empty_like(psi)
    placed = 0
    for interior, basis, deriv in (
        (WARP_INTERIOR, ws.basis, ws.deriv),
        (INVERSE_INTERIOR, ws.inverse_basis, ws.inverse_deriv),
    ):
        rows = [j for j, warp in enumerate(warps) if _has_layout(warp.forward, interior)]
        if rows:
            coef = np.array([warps[j].forward.coefficients for j in rows])
            psi[rows] = coef @ basis.T
            dpsi[rows] = coef @ deriv.T
            placed += len(rows)
    if placed != len(warps):
        raise InvalidInputError("warp spline is outside the fixed warp family")
    return np.clip(psi, 0.0, 1.0, out=psi), dpsi


def n_raw_params() -> int:
    return len(_GREVILLE_STEPS)


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


def make_warping(raw_params) -> Warping:
    """Build a warp from unconstrained parameters.

    Coefficient increments are exp(raw) times the Greville spacing, rescaled so
    the coefficients run 0 to 1: boundary values hold exactly, monotonicity by
    construction, and all-equal parameters give the exact identity.
    """
    raw = np.asarray(raw_params, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise InvalidParameterError("warp parameters must be finite")
    if raw.shape != _GREVILLE_STEPS.shape:
        raise InvalidParameterError(
            f"expected {len(_GREVILLE_STEPS)} warp parameters, got {raw.shape}"
        )
    forward = SplineRep(
        degree=WARP_DEGREE,
        interior_knots=WARP_INTERIOR,
        coefficients=_coefficients_from_raw(raw, _GREVILLE_STEPS),
    )
    return Warping(forward=forward, inverse=invert_warping(forward))


def _pinned_fit(x, y, degree, interior, left, right) -> np.ndarray:
    """Least-squares spline fit with the first/last coefficients pinned."""
    design = basis_matrix(x, degree, interior)
    rhs = y - left * design[:, 0] - right * design[:, -1]
    mid, *_ = np.linalg.lstsq(design[:, 1:-1], rhs, rcond=None)
    return np.concatenate([[left], mid, [right]])


def invert_warping(psi: SplineRep) -> SplineRep:
    """Quadratic-spline approximation of the inverse of a monotone warp."""
    values = evaluate(psi, _DENSE)
    if np.any(np.diff(values) <= 0.0):
        raise MonotonicityError("warp is not strictly increasing on [0, 1]")
    if abs(values[0]) > 1e-6 or abs(values[-1] - 1.0) > 1e-6:
        raise MonotonicityError("warp does not satisfy psi(0)=0, psi(1)=1")
    values = values.copy()
    values[0], values[-1] = 0.0, 1.0
    coef = _pinned_fit(values, _DENSE, WARP_DEGREE, INVERSE_INTERIOR, 0.0, 1.0)
    # spline values live in the convex hull of the coefficients, so clipping
    # keeps the approximate inverse inside [0, 1]
    return SplineRep(
        degree=WARP_DEGREE,
        interior_knots=INVERSE_INTERIOR,
        coefficients=np.clip(coef, 0.0, 1.0),
    )


def power_warp_raw(alpha: float) -> np.ndarray:
    """Raw parameters whose warp is the least-squares projection of t**alpha."""
    steps = _GREVILLE_STEPS
    if alpha == 1.0:
        return np.zeros_like(steps)
    coef = _pinned_fit(_DENSE, _DENSE**alpha, WARP_DEGREE, WARP_INTERIOR, 0.0, 1.0)
    increments = np.maximum(np.diff(coef), 1e-4 * steps)
    raw = np.log(increments / steps)
    raw -= raw.mean()
    return raw


def roughness_penalty(psi: Warping, grid: Grid) -> float:
    """Integrated squared deviation of the warp derivative from 1 (trapezoid).

    `roughness_penalty(psi.swapped(), grid)` is the penalty of the inverse.
    """
    dvals = evaluate(derivative(psi.forward), grid.points)
    return float(grid.weights @ (dvals - 1.0) ** 2)


def warp_samples(warp: Warping | None) -> list:
    """[t, psi(t)] at 101 equally spaced t in [0, 1], psi clipped into [0, 1];
    psi is the identity when `warp` is None."""
    ts = np.linspace(0.0, 1.0, 101)
    vals = ts if warp is None else np.clip(warp.forward(ts), 0.0, 1.0)
    return [[float(t), float(v)] for t, v in zip(ts, vals)]


def _checked_warp_values(spline: SplineRep, points: np.ndarray) -> np.ndarray:
    vals = spline(points)
    if np.any(vals < -_RANGE_TOL) or np.any(vals > 1.0 + _RANGE_TOL):
        raise WarpRangeError("warp leaves the unit interval on the grid")
    return np.clip(vals, 0.0, 1.0)


def rho_parts(f: Curve, g: Curve, warp: Warping, lambda0: float) -> SimilarityEntry:
    """Penalized similarity of f and g at a fixed warp, with all parts.

    Forward part correlates f with g evaluated at warped grid points; the
    reverse part correlates g with f evaluated through the approximate inverse.
    """
    check_lambda0(lambda0)
    if f.grid.key != g.grid.key:
        raise InvalidInputError("curves must share the same grid")
    grid = f.grid
    g_warped = g.spline(_checked_warp_values(warp.forward, grid.points))
    r_fwd = corr(f.samples, g_warped, grid.weights)
    p_fwd = roughness_penalty(warp, grid)
    f_unwarped = f.spline(_checked_warp_values(warp.inverse, grid.points))
    r_inv = corr(g.samples, f_unwarped, grid.weights)
    p_inv = roughness_penalty(warp.swapped(), grid)
    rho = 0.5 * ((r_fwd - lambda0 * p_fwd) + (r_inv - lambda0 * p_inv))
    return SimilarityEntry(rho, warp, p_fwd, p_inv, r_fwd, r_inv)


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
    g_values = spline_evaluator(g.spline)
    basis, deriv, steps = ws.basis, ws.deriv, _GREVILLE_STEPS
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
        # np.clip's bytes at half its cost: psi, a nonnegative sum, has no -0.0 or NaN
        np.minimum(np.maximum(psi, 0.0, out=psi), 1.0, out=psi)
        g_warped = g_values(psi)
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


@functools.cache
def _start_points() -> tuple:
    """The starts of the multi-start search, `power_warp_raw(alpha)` for each
    exponent of `_POWER_STARTS` in order (1.0 gives the identity, all zeros),
    and the warp of each.

    Built once and shared by every later search, so the arrays are read-only.
    """
    starts = tuple(power_warp_raw(alpha) for alpha in _POWER_STARTS)
    warps = tuple(make_warping(raw) for raw in starts)
    for raw, warp in zip(starts, warps):
        raw.flags.writeable = False
        warp.forward.coefficients.flags.writeable = False
        warp.inverse.coefficients.flags.writeable = False
    return starts, warps


def _spare_cpus() -> int:
    """CPUs of this process's affinity mask beyond the one it runs on."""
    if not hasattr(os, "sched_getaffinity"):  # no affinity mask here; run alone
        return 0
    return len(os.sched_getaffinity(0)) - 1


def _check_pairs(pairs, lambda0: float) -> None:
    """Reject a bad penalty weight, or a constant curve in any (f, g) pair."""
    check_lambda0(lambda0)
    for f, g in pairs:
        if centered_norm(f.samples, f.grid.weights) <= ZERO_NORM_TOL or (
            centered_norm(g.samples, g.grid.weights) <= ZERO_NORM_TOL
        ):
            raise ZeroVarianceError("similarity is undefined for constant curves")


def _run_units(pairs, lambda0, units, out) -> None:
    """Write the Nelder-Mead final point of each (pair index, start index)
    unit into the matching row of `out`."""
    starts, _ = _start_points()
    objective, current = None, None
    for row, (p, s) in zip(out, units):
        if p != current:  # units come pair-major: one objective per run of a pair
            f, g = pairs[p]
            objective, current = _proxy_objective(f, g, lambda0, _workspace(f.grid)), p
        row[:] = _budgeted_nelder_mead(objective, starts[s])


def _fork_helper(pairs, lambda0, units, out) -> int:
    """Fork a process that writes the final points of `units` into `out`, rows
    of a shared mapping, and exits with status 0; returns its pid."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # interrupts are the caller's
            _run_units(pairs, lambda0, units, out)
            code = 0
        finally:
            os._exit(code)  # never back into the caller's code
    return pid


def final_points(pairs, lambda0: float) -> np.ndarray:
    """The Nelder-Mead final point of each start of each (f, g) pair, as an
    array of shape (pairs, starts, raw parameters) in pair and start order.

    Every pair is checked before any search starts.  The (pair, start) units
    are flattened pair-major and, with k helpers (one per spare CPU, at most
    one per unit after the first), dealt round-robin: the caller runs
    positions 0, k + 1, 2k + 2, ... and helper share i runs positions i,
    i + k + 1, ....  Each unit's final point is one row of a buffer that the
    caller and its helpers share; each helper is forked once for this call,
    writes its rows and exits.  A unit runs the same code on the same inputs
    wherever it runs, so the final points do not depend on k.  A helper whose
    exit status is not 0 has died, and its share runs again in the caller; if
    the caller raises, the helpers still running are killed and reaped.
    """
    _check_pairs(pairs, lambda0)
    n_starts, n_raw = len(_POWER_STARTS), n_raw_params()
    units = [(p, s) for p in range(len(pairs)) for s in range(n_starts)]
    if not units:
        return np.empty((0, n_starts, n_raw))
    share = min(_spare_cpus(), len(units) - 1) + 1
    # an anonymous mapping is shared with forked children, unlike the heap
    buffer = mmap.mmap(-1, 8 * n_raw * len(units))
    finals = np.frombuffer(buffer).reshape(len(units), n_raw)
    helpers = []  # pid of each helper not yet reaped, in share order
    try:
        for i in range(1, share):
            helpers.append(_fork_helper(pairs, lambda0, units[i::share], finals[i::share]))
        _run_units(pairs, lambda0, units[::share], finals[::share])
        for i in range(1, share):
            _, status = os.waitpid(helpers[0], 0)
            del helpers[0]
            if status != 0:  # the helper died, perhaps before writing its rows
                _run_units(pairs, lambda0, units[i::share], finals[i::share])
    finally:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return finals.reshape(len(pairs), n_starts, n_raw)


def optimize_warping(
    f: Curve, g: Curve, lambda0: float, finals: np.ndarray | None = None
) -> SimilarityEntry:
    """Maximize the penalized similarity of f and g over the warp family.

    Nelder-Mead multi-start from fixed power-warp projections, the identity
    among them.  `finals` are the search's final points for this pair, in
    start order, when the caller ran the searches of several pairs at once
    (`final_points`); without them this pair is a build of one pair, its
    starts shared with helper processes on spare CPUs.  All start and final
    points are re-scored exactly (inverse spline included); the best exact
    value wins, so the result never falls below the identity alignment and
    matches rho_parts at the returned warp to machine precision.
    """
    if finals is None:
        (finals,) = final_points([(f, g)], lambda0)
    else:
        _check_pairs([(f, g)], lambda0)
    starts, start_warps = _start_points()

    seen = {raw.tobytes() for raw in starts}
    candidates = list(zip(starts, start_warps))
    for final in finals:
        if final.tobytes() not in seen:
            seen.add(final.tobytes())
            candidates.append((final, None))

    best = None
    for raw, warp in candidates:
        try:
            if warp is None:
                warp = make_warping(raw)
            entry = rho_parts(f, g, warp, lambda0)
        except (MonotonicityError, WarpRangeError, ZeroVarianceError):
            continue  # search drifted into a numerically flat warp
        if best is None or entry.rho > best.rho:
            best = entry
    return best
