"""Monotone warping functions on [0, 1] and the penalized-similarity optimizer.

The warp family is fixed: a warp is a spline in `WARP`, quadratic on 3
equally spaced interior knots, with positive coefficient increments, so it is
strictly increasing and pins 0 -> 0, 1 -> 1 exactly by construction.  Raw
parameters are unconstrained reals: increments are exp(raw) scaled by the
Greville spacing of `WARP`, which makes all-equal raw parameters the exact
identity.  The inverse is approximated by least squares in `INVERSE`, a finer
quadratic space on 23 equally spaced interior knots.  A warp read in reverse
(`Warping.swapped`) has its forward spline in `INVERSE`; no other layout is a
warp's.

The optimizer runs the Nelder-Mead searches of many (pair, start) rows in
lockstep (`minimize`), one batched objective call per round for all of them
(`_proxy_values`); each row's search and values are, bit for bit, those of
scipy's Nelder-Mead on the one-row objective.  A row's whole search, restarts
included, is one flat generator (`_start_search`) with scipy's step
arithmetic written out per coordinate, so a round costs each row one `send`.
A build (`final_points`) scores each start and final point exactly where it
was searched, and `optimize_warping` picks each pair's warp from its rows.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import mmap
import operator
import os
import signal
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve
from .errors import (
    DegenerateDataError,
    InvalidInputError,
    InvalidParameterError,
    MonotonicityError,
    WarpRangeError,
    ZeroVarianceError,
)
from .products import ZERO_NORM_TOL, centered_norm, corr
from .splines import Grid, Layout, SplineRep, _read_only, derivative

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

# Grid values per block of one batched objective call: a process's share of
# a build is split into the fewest blocks of at most this many // grid points
# rows, their sizes at most one row apart.  A call's 20 or so row-by-grid
# temporaries then stay within a 2 MB L2 cache, and a lone pair's 5 rows at
# grid 500 stay one block (README "Design and performance" has the sweep).
_BLOCK_VALUES = 4_096


@dataclass(eq=False)
class Warping:
    """Forward warp spline paired with a spline approximation of its inverse.

    `on_grid` holds, per grid, what `rho_parts` needs of the warp alone
    (`_grid_parts`), computed at the first call on that grid.
    """

    forward: SplineRep
    inverse: SplineRep
    on_grid: dict = field(default_factory=dict, init=False, repr=False)

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


def greville_abscissae(layout: Layout) -> np.ndarray:
    t, k = layout.knots, layout.degree
    return np.array([t[i + 1 : i + k + 1].mean() for i in range(layout.size)])


# The warp family: every warp's forward spline is in one of these, its
# inverse in the other.
WARP = Layout(2, 3)
INVERSE = Layout(2, 23)
_GREVILLE_STEPS = _read_only(np.diff(greville_abscissae(WARP)))
_N_RAW = 5  # raw parameters of a warp; `_start_search` writes its centroid out for 5
assert len(_GREVILLE_STEPS) == _N_RAW


def forward_on_grid(warps, grid: Grid) -> tuple:
    """psi (clipped into [0, 1]) and psi' of each warp's forward spline at the
    grid points, one row per warp, from the layouts' cached grid designs: one
    product per layout.  A swapped warp reads its inverse forward.  A forward
    spline outside `WARP` and `INVERSE` raises InvalidInputError."""
    psi = np.empty((len(warps), len(grid)))
    dpsi = np.empty_like(psi)
    layouts = [warp.forward.layout for warp in warps]
    if not all(layout is WARP or layout is INVERSE for layout in layouts):
        raise InvalidInputError("warp spline is outside the fixed warp family")
    for layout in (WARP, INVERSE):
        rows = [j for j, own in enumerate(layouts) if own is layout]
        if rows:
            coef = np.array([warps[j].forward.coefficients for j in rows])
            psi[rows] = coef @ layout.on_grid(grid).T
            dpsi[rows] = coef @ layout.derivative_on_grid(grid).T
    return np.clip(psi, 0.0, 1.0, out=psi), dpsi


def n_raw_params() -> int:
    return _N_RAW


def _coefficients_from_raw(raw: np.ndarray) -> np.ndarray:
    """Warp coefficients for `raw`, one warp per row when `raw` is 2-D."""
    tail = np.exp(raw - np.maximum.reduce(raw, axis=-1, keepdims=True))
    np.multiply(tail, _GREVILLE_STEPS, out=tail)
    np.add.accumulate(tail, axis=-1, out=tail)
    coef = np.zeros(raw.shape[:-1] + (raw.shape[-1] + 1,))
    np.divide(tail, tail[..., -1:], out=coef[..., 1:])
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
    if raw.shape != (_N_RAW,):
        raise InvalidParameterError(f"expected {_N_RAW} warp parameters, got {raw.shape}")
    forward = SplineRep(WARP, _coefficients_from_raw(raw))
    return Warping(forward=forward, inverse=invert_warping(forward))


def _pinned_fit(x, y, layout: Layout, left, right) -> np.ndarray:
    """Least-squares spline fit with the first/last coefficients pinned."""
    design = layout.basis(x)
    rhs = y - left * design[:, 0] - right * design[:, -1]
    mid, *_ = np.linalg.lstsq(design[:, 1:-1], rhs, rcond=None)
    return np.concatenate([[left], mid, [right]])


def invert_warping(psi: SplineRep) -> SplineRep:
    """Quadratic-spline approximation of the inverse of a monotone warp."""
    values = psi(_DENSE)
    if np.any(np.diff(values) <= 0.0):
        raise MonotonicityError("warp is not strictly increasing on [0, 1]")
    if abs(values[0]) > 1e-6 or abs(values[-1] - 1.0) > 1e-6:
        raise MonotonicityError("warp does not satisfy psi(0)=0, psi(1)=1")
    values = values.copy()
    values[0], values[-1] = 0.0, 1.0
    coef = _pinned_fit(values, _DENSE, INVERSE, 0.0, 1.0)
    # spline values live in the convex hull of the coefficients, so clipping
    # keeps the approximate inverse inside [0, 1]
    return SplineRep(INVERSE, np.clip(coef, 0.0, 1.0))


def power_warp_raw(alpha: float) -> np.ndarray:
    """Raw parameters whose warp is the least-squares projection of t**alpha."""
    steps = _GREVILLE_STEPS
    if alpha == 1.0:
        return np.zeros_like(steps)
    coef = _pinned_fit(_DENSE, _DENSE**alpha, WARP, 0.0, 1.0)
    increments = np.maximum(np.diff(coef), 1e-4 * steps)
    raw = np.log(increments / steps)
    raw -= raw.mean()
    return raw


def roughness_penalty(psi: Warping, grid: Grid) -> float:
    """Integrated squared deviation of the warp derivative from 1 (trapezoid).

    `roughness_penalty(psi.swapped(), grid)` is the penalty of the inverse.
    """
    dvals = derivative(psi.forward)(grid.points)
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


def _grid_parts(warp: Warping, grid: Grid) -> tuple:
    """psi and its inverse at the grid points, range-checked and clipped into
    [0, 1] (read-only), and the roughness penalties of the warp and of its
    inverse: computed at the first call for a grid and kept on the warp."""
    parts = warp.on_grid.get(grid)
    if parts is None:
        psi = _read_only(_checked_warp_values(warp.forward, grid.points))
        psi_inv = _read_only(_checked_warp_values(warp.inverse, grid.points))
        parts = warp.on_grid[grid] = (
            psi,
            psi_inv,
            roughness_penalty(warp, grid),
            roughness_penalty(warp.swapped(), grid),
        )
    return parts


def rho_parts(f: Curve, g: Curve, warp: Warping, lambda0: float) -> SimilarityEntry:
    """Penalized similarity of f and g at a fixed warp, with all parts.

    Forward part correlates f with g evaluated at warped grid points; the
    reverse part correlates g with f evaluated through the approximate inverse.
    """
    check_lambda0(lambda0)
    if f.grid != g.grid:
        raise InvalidInputError("curves must share the same grid")
    grid = f.grid
    psi, psi_inv, p_fwd, p_inv = _grid_parts(warp, grid)
    r_fwd = corr(f.samples, g.spline.evaluator(psi), grid.weights)
    r_inv = corr(g.samples, f.spline.evaluator(psi_inv), grid.weights)
    rho = 0.5 * ((r_fwd - lambda0 * p_fwd) + (r_inv - lambda0 * p_inv))
    return SimilarityEntry(rho, warp, p_fwd, p_inv, r_fwd, r_inv)


def _proxy_values(pairs, lambda0: float, row_pairs: np.ndarray):
    """The search's objective, the negative penalized similarity, of many rows
    at once: `values(rows, raws)` gives the value at `raws[i]` of row
    `rows[i]`, whose curves are `pairs[row_pairs[rows[i]]]`, all on one grid.

    The reverse-direction correlation and penalty are computed by change of
    variables with the forward derivative as weight, without the inverse
    spline: the same quantity up to inverse-approximation error.  A row whose
    warp is numerically flat somewhere, whose warped curve is constant, or
    whose similarity is not finite reads 2.0.  A flat row runs through the
    same arithmetic as the others (its NaN, infinities and divisions by zero
    stay in its own values) and is masked at the end.

    What depends on `rows` alone (each row's pair, its f samples, their
    centered values and norm, and the runs of a pair's rows) is gathered
    once per `rows` array: `minimize` passes the same array object from round
    to round until a row finishes, and the array is not changed meanwhile.

    Each row gets the bytes of the one-row objective that tests/test_warping.py
    keeps as the reference: per-row products run through `np.vecdot` and a
    stacked `np.matmul`, which call the same BLAS dot and gemv per row as
    `np.dot(w, x)` and `basis @ coef`.  `rows @ w` and `coef @ basis.T` call
    other kernels, whose last bits differ.
    """
    grid = pairs[0][0].grid
    w, n = grid.weights, len(grid)
    basis = WARP.on_grid(grid)
    deriv = WARP.derivative_on_grid(grid)
    fs = np.array([f.samples for f, _ in pairs])
    f_centered = fs - np.vecdot(fs, w)[:, None]
    f_norm = np.sqrt(np.vecdot(f_centered * f_centered, w))
    g_values = [g.spline.evaluator for _, g in pairs]
    vecdot, clip = np.vecdot, _clip_unit
    gathered = None  # the last `rows` array, and what was gathered for it

    def gather(rows: np.ndarray) -> tuple:
        p = row_pairs[rows]
        runs, stop = [], 0  # one spline call per run of a pair's rows
        for pair, run in itertools.groupby(p.tolist()):
            start, stop = stop, stop + len(list(run))
            runs.append((g_values[pair], start, stop))
        return rows, runs, fs[p], f_centered[p], f_norm[p]

    def values(rows: np.ndarray, raws: np.ndarray) -> np.ndarray:
        nonlocal gathered
        if gathered is None or gathered[0] is not rows:
            gathered = gather(rows)
        _, runs, fsp, fcp, fnp = gathered
        coef = _coefficients_from_raw(raws)[:, :, None]
        psi = np.matmul(basis, coef).reshape(len(rows), n)
        dpsi = np.matmul(deriv, coef).reshape(len(rows), n)
        # False where NaN, or numerically flat somewhere: 1/dpsi would blow up
        steep = np.minimum.reduce(dpsi, axis=1) > 1e-9
        # np.clip's bytes: psi of a steep row, a nonnegative sum, has no -0.0
        # or NaN
        np.minimum(np.maximum(psi, 0.0, out=psi), 1.0, out=psi)
        g_warped = np.empty_like(psi)
        for g_value, start, stop in runs:
            g_warped[start:stop] = g_value(psi[start:stop])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            gc = g_warped - vecdot(g_warped, w)[:, None]
            g_norm = np.sqrt(vecdot(gc * gc, w))
            r_fwd = clip(vecdot(fcp * gc, w) / (fnp * g_norm))
            d1 = dpsi - 1.0
            p_fwd = vecdot(d1 * d1, w)
            wd = w * dpsi
            gcw = g_warped - vecdot(wd, g_warped)[:, None]
            fcw = fsp - vecdot(wd, fsp)[:, None]
            g_var = vecdot(wd, gcw * gcw)
            denom = np.sqrt(g_var * vecdot(wd, fcw * fcw))
            r_inv = clip(vecdot(wd, gcw * fcw) / denom)
            d1 = 1.0 / dpsi - 1.0
            p_inv = vecdot(wd, d1 * d1)
            rho = 0.5 * ((r_fwd - lambda0 * p_fwd) + (r_inv - lambda0 * p_inv))
        good = steep & (g_norm > ZERO_NORM_TOL) & (denom > ZERO_NORM_TOL**2) & np.isfinite(rho)
        return np.where(good, np.negative(rho, out=rho), 2.0)

    return values


def _clip_unit(x: np.ndarray) -> np.ndarray:
    """x clipped into [-1, 1], NaN kept, as `min(max(x, -1.0), 1.0)` per value."""
    return np.minimum(np.maximum(x, -1.0, out=x), 1.0, out=x)


def _ordered(sim: list, fsim: list) -> tuple:
    """Vertices and values in `np.argsort(fsim)` order, scipy's order, and
    whether the values are distinct and not NaN.

    Distinct values have one sorted order, which `sorted` finds.  Equal
    values and NaN go to `np.argsort`: its order of equal values is its own
    (it is not a stable sort here), and it puts NaN last.  A NaN fails every
    `<`, so it never passes the check of distinct values.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    values = [fsim[i] for i in order]
    distinct = all(map(operator.lt, values, values[1:]))
    if not distinct:
        order = np.array(fsim).argsort().tolist()
        values = [fsim[i] for i in order]
    return [sim[i] for i in order], values, distinct


def _start_search(x: list, final: np.ndarray):
    """One start's search as a generator: it yields each point to evaluate
    (a list of floats) and is sent the point's value.  When the search ends
    it writes its final point into `final` and yields None.

    The search runs scipy's `_minimize_neldermead` from a simplex of edge
    `_SIMPLEX_STEP` at x, step for step, with its default coefficients,
    `xatol=_XATOL` and `fatol=_FATOL`.  It restarts from the final point with
    an edge a third as long (at least 1e-3) for as long as a run improves the
    value by more than 1e-13 and more than 2 (n + 1) of the start's
    `_BUDGET_PER_START` evaluations remain; x's own first evaluation is
    outside the budget.  Each run evaluates its first vertex again, as scipy
    does, and stops where scipy's would when its budget runs out mid-step:
    an expansion or contraction changes nothing, and a shrink keeps the
    vertex it moved but could not evaluate.

    Each coordinate gets scipy's float operations in scipy's order: the
    centroid sums the vertices from the best one on, as
    `np.add.reduce(sim[:-1], 0)` does (a sum from 0.0 would turn -0.0 into
    0.0), and each step is the expression scipy's coefficients reduce to (the
    reflection's `1 * v` is `v` exactly).  The simplex stays in scipy's order
    (`_ordered`).  After a step that only replaces the worst vertex, and
    while the values are distinct and not NaN, the new vertex is inserted
    where it sorts (`bisect`), unless it is NaN or equals another value.
    Once sorted, `fsim[-1] - fsim[0]` is scipy's largest value difference, so
    that cheap test comes before the test on the coordinates.
    """
    fx = yield x
    remaining, step = _BUDGET_PER_START, _SIMPLEX_STEP
    while remaining > 2 * (_N_RAW + 1):
        sim = [x] + [[a + step * (i == j) for i, a in enumerate(x)] for j in range(_N_RAW)]
        fsim = []
        for vertex in sim:
            fsim.append((yield vertex))
        calls = _N_RAW + 1
        sim, fsim, distinct = _ordered(*_ordered(sim, fsim)[:2])  # scipy sorts twice here
        while calls < remaining:
            best = sim[0]
            if fsim[-1] - fsim[0] <= _FATOL and all(
                abs(a - b) <= _XATOL for v in sim[1:] for a, b in zip(v, best)
            ):
                break
            s0, s1, s2, s3, s4, worst = sim
            xbar = [(a + b + c + d + e) / 5 for a, b, c, d, e in zip(s0, s1, s2, s3, s4)]
            xr = [2 * c - v for c, v in zip(xbar, worst)]
            fxr = yield xr
            calls += 1
            new = None  # the vertex that replaces the worst one, with its value
            if fxr < fsim[0]:
                if calls < remaining:
                    xe = [3 * c - 2 * v for c, v in zip(xbar, worst)]
                    fxe = yield xe
                    calls += 1
                    new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                new = xr, fxr
            elif calls < remaining:
                if fxr < fsim[-1]:
                    xc = [1.5 * c - 0.5 * v for c, v in zip(xbar, worst)]
                    fxc = yield xc
                    calls += 1
                    if fxc <= fxr:
                        new = xc, fxc
                else:
                    xcc = [0.5 * c + 0.5 * v for c, v in zip(xbar, worst)]
                    fxcc = yield xcc
                    calls += 1
                    if fxcc < fsim[-1]:
                        new = xcc, fxcc
                if new is None:  # shrink towards the best vertex
                    for j in range(1, _N_RAW + 1):
                        sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                        if calls == remaining:
                            break
                        fsim[j] = yield sim[j]
                        calls += 1
            if new is not None:
                v, fv = new
                if distinct:
                    i = bisect.bisect_left(fsim, fv, 0, _N_RAW)
                    if i == _N_RAW or fv < fsim[i]:  # distinct from the rest, not NaN
                        del sim[-1], fsim[-1]
                        sim.insert(i, v)
                        fsim.insert(i, fv)
                        continue
                sim[-1], fsim[-1] = v, fv
            sim, fsim, distinct = _ordered(sim, fsim)
        remaining -= calls
        fn = np.min(fsim)  # scipy's final value, NaN when any vertex value is NaN
        if fn >= fx - 1e-13:
            break
        x, fx = sim[0], fn
        step = max(step / 3.0, 1e-3)
    final[:] = x
    yield None


@dataclass(eq=False)
class SearchResult:
    """The final point of each start, one row each, and the objective
    evaluations the search spent, each start's first included."""

    x: np.ndarray
    nfev: int


def minimize(values, x0s: np.ndarray) -> SearchResult:
    """The budgeted Nelder-Mead search (`_start_search`) from each
    row of `x0s`, all rows in lockstep.

    Each round takes the one point that each unfinished row waits on and
    makes one `values(rows, points)` call for all of them (`rows` holds the
    row indices, and is the same array object from one round to the next
    until a row finishes); each row then gets its own value back, and a row
    whose search yields None has written its final point and leaves the
    rounds.  A row's points do not depend on the other rows, so its final
    point is that of its search alone.
    """
    finals = np.array(x0s, dtype=float)
    sends = [_start_search(x0, final).send for x0, final in zip(finals.tolist(), finals)]
    rows = np.arange(len(sends))
    points = [send(None) for send in sends]
    nfev = 0
    while sends:
        packed = np.fromiter(itertools.chain.from_iterable(points), float, _N_RAW * len(points))
        fx = values(rows, packed.reshape(-1, _N_RAW)).tolist()
        nfev += len(fx)
        points = [send(value) for send, value in zip(sends, fx)]
        if None in points:  # a row has finished
            going = [i for i, point in enumerate(points) if point is not None]
            rows = rows[going]
            sends = [sends[i] for i in going]
            points = [points[i] for i in going]
    return SearchResult(finals, nfev)


@functools.cache
def _start_points() -> tuple:
    """The starts of the multi-start search, `power_warp_raw(alpha)` for each
    exponent of `_POWER_STARTS` in order (1.0 gives the identity, all zeros),
    and the warp of each.

    Built once and shared by every later search, so the arrays are read-only.
    """
    starts = tuple(_read_only(power_warp_raw(alpha)) for alpha in _POWER_STARTS)
    warps = tuple(make_warping(raw) for raw in starts)
    for warp in warps:
        _read_only(warp.forward.coefficients)
        _read_only(warp.inverse.coefficients)
    return starts, warps


def _spare_cpus() -> int:
    """CPUs of this process's affinity mask beyond the one it runs on."""
    if not hasattr(os, "sched_getaffinity"):  # no affinity mask here; run alone
        return 0
    return len(os.sched_getaffinity(0)) - 1


# A (pair, start) unit's row of a build's shared buffer: the search's final
# point; for the start's warp (candidate 0) and the final point's warp
# (candidate 1), whether `rho_parts` scored it and the entry's numbers in
# `SimilarityEntry` order; and the final warp's inverse coefficients.
_UNIT = np.dtype(
    [
        ("final", float, (_N_RAW,)),
        ("scored", bool, (2,)),
        ("parts", float, (2, 5)),
        ("inverse", float, (INVERSE.size,)),
    ],
    align=True,
)


def _run_units(pairs, lambda0, units, out) -> None:
    """Search each (pair index, start index) unit, then score its start's
    warp and its final point's warp exactly, and write both into the unit's
    row of `out` (`_UNIT`).

    The units, pair-major, are searched in the fewest blocks of at most
    `_BLOCK_VALUES // grid points` units whose sizes differ by at most one,
    each block by one `minimize` call over the pairs its units hold; a row's
    bytes do not depend on its block.  A warp that is numerically flat
    (MonotonicityError), leaves the unit interval (WarpRangeError) or makes a
    curve constant (ZeroVarianceError) is left unscored.
    """
    starts, start_warps = _start_points()
    limit = max(_BLOCK_VALUES // len(pairs[0][0].grid), 1)
    n_blocks = math.ceil(len(units) / limit)
    bounds = [len(units) * b // n_blocks for b in range(n_blocks + 1)]
    for first, stop in zip(bounds, bounds[1:]):
        chunk = units[first:stop]
        low = chunk[0][0]
        row_pairs = np.array([p - low for p, _ in chunk])
        values = _proxy_values(pairs[low : chunk[-1][0] + 1], lambda0, row_pairs)
        rows = out[first:stop]
        rows["final"] = minimize(values, np.array([starts[s] for _, s in chunk])).x
        for (p, s), row in zip(chunk, rows):
            f, g = pairs[p]
            for candidate in range(2):
                try:
                    warp = start_warps[s] if candidate == 0 else make_warping(row["final"])
                    entry = rho_parts(f, g, warp, lambda0)
                except (MonotonicityError, WarpRangeError, ZeroVarianceError):
                    entry = None  # search drifted into a numerically flat warp
                row["scored"][candidate] = entry is not None
                if entry is not None:
                    row["parts"][candidate] = (
                        entry.rho,
                        entry.penalty_fwd,
                        entry.penalty_inv,
                        entry.r_fwd,
                        entry.r_inv,
                    )
            if entry is not None:  # the final point's warp
                row["inverse"] = entry.warp.inverse.coefficients


def _fork_helper(pairs, lambda0, units, out) -> int:
    """Fork a process that writes the rows of `units` into `out`, rows of a
    shared mapping, and exits with status 0; returns its pid."""
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
    """The Nelder-Mead final point of each start of each (f, g) pair, with
    the exact scores of the start's warp and of the final point's warp: an
    array of `_UNIT` rows of shape (pairs, starts) in pair and start order.

    Before any search starts, a bad penalty weight, curves on more than one
    grid and a constant curve in any pair are rejected.  The (pair, start)
    units are flattened pair-major and, with k helpers (one per spare CPU, at
    most one per unit after the first), split into k + 1 contiguous runs
    whose sizes differ by at most one, the larger ones first: the caller runs
    the first run and helper i the run after it.  A process's blocks then
    hold few pairs, and a round of a block's search makes one shape-spline
    call per pair.  Each unit's row is one row of a buffer that the caller and
    its helpers share; each helper is forked once for this call, writes its
    rows and exits.  A unit runs the same code on the same inputs wherever it
    runs, so the rows do not depend on k.  The start warps' grid parts are
    computed before any fork, so every process reads them.  A helper whose
    exit status is not 0 has died, and its share runs again in the caller; if
    the caller raises, the helpers still running are killed and reaped.
    """
    check_lambda0(lambda0)
    if len({curve.grid for pair in pairs for curve in pair}) > 1:
        raise InvalidInputError("curves must share the same grid")
    for pair in pairs:
        if any(centered_norm(c.samples, c.grid.weights) <= ZERO_NORM_TOL for c in pair):
            raise ZeroVarianceError("similarity is undefined for constant curves")
    n_starts = len(_POWER_STARTS)
    units = [(p, s) for p in range(len(pairs)) for s in range(n_starts)]
    if not units:
        return np.empty((0, n_starts), _UNIT)
    for warp in _start_points()[1]:
        _grid_parts(warp, pairs[0][0].grid)
    share = min(_spare_cpus(), len(units) - 1) + 1
    # an anonymous mapping is shared with forked children, unlike the heap
    buffer = mmap.mmap(-1, _UNIT.itemsize * len(units))
    finals = np.frombuffer(buffer, _UNIT)
    bounds = [-(-len(units) * i // share) for i in range(share + 1)]  # ceilings
    runs = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    helpers = []  # pid of each helper not yet reaped, in share order
    try:
        for run in runs[1:]:
            helpers.append(_fork_helper(pairs, lambda0, units[run], finals[run]))
        _run_units(pairs, lambda0, units[runs[0]], finals[runs[0]])
        for run in runs[1:]:
            _, status = os.waitpid(helpers[0], 0)
            del helpers[0]
            if status != 0:  # the helper died, perhaps before writing its rows
                _run_units(pairs, lambda0, units[run], finals[run])
    finally:
        for pid in helpers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return finals.reshape(len(pairs), n_starts)


def optimize_warping(searched: np.ndarray) -> SimilarityEntry:
    """The maximized penalized similarity of one pair, picked from the pair's
    rows of `final_points`, in start order.

    Every start and final point was scored exactly (inverse spline included)
    where it was searched.  The candidates are the five starts, then the five
    final points, and a later one wins only when its exact value is strictly
    larger, so the result never falls below the identity alignment and
    matches rho_parts at the returned warp to machine precision.  A final
    point equal to an earlier candidate has that candidate's scores, so it
    never wins.  Raises DegenerateDataError when no candidate could be scored.
    """
    start_warps = _start_points()[1]
    scored, parts = searched["scored"], searched["parts"]
    best = None  # (start index, candidate)
    for candidate in range(2):
        for s in range(len(searched)):
            if scored[s, candidate] and (best is None or parts[s, candidate, 0] > parts[best][0]):
                best = s, candidate
    if best is None:
        raise DegenerateDataError(
            "no warp of the pair could be scored: every start and final point was"
            " numerically flat, left the unit interval or made a curve constant"
        )
    s, candidate = best
    if candidate == 0:
        warp = start_warps[s]
    else:
        # copies: the rows live in the build's shared mapping
        forward = _coefficients_from_raw(searched["final"][s])
        inverse = searched["inverse"][s].copy()
        warp = Warping(SplineRep(WARP, forward), SplineRep(INVERSE, inverse))
    rho, *numbers = parts[best].tolist()
    return SimilarityEntry(rho, warp, *numbers)
