import contextlib
import dataclasses
import json
import linecache
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import _optimize
from scipy.optimize import minimize as scipy_minimize

import curveclust
from curveclust import warping
from curveclust.combining import assign_groups, candidate_partition, combine_group
from curveclust.curves import refit_on_grid
from curveclust.errors import (
    DegenerateDataError,
    InvalidInputError,
    InvalidParameterError,
    MonotonicityError,
    WarpRangeError,
    ZeroVarianceError,
)
from curveclust.indices import distances_from_similarity, silhouette
from curveclust.products import ZERO_NORM_TOL, corr
from curveclust.similarity import (
    PairCache,
    SimilarityMatrix,
    rho_given_psi,
    similarity,
    similarity_matrix,
)
from curveclust.splines import SplineRep, derivative, make_grid, uniform_layout
from curveclust.updating import update_all, weight_exponent
from curveclust.warping import (
    invert_warping,
    make_warping,
    n_raw_params,
    power_warp_raw,
    rho_parts,
    roughness_penalty,
)

from .conftest import assert_no_child, identity_warp, random_smooth_curve, sine_shape

CHECK = np.linspace(0.0, 1.0, 257)


class TestMakeWarping:
    def test_equal_raw_params_give_identity(self):
        warp = make_warping(np.zeros(n_raw_params()))
        assert np.abs(warp.forward(CHECK) - CHECK).max() <= 1e-9

    @given(st.lists(st.floats(-2, 2), min_size=5, max_size=5), st.floats(-3, 3))
    def test_boundaries_exact_and_monotone(self, raw, shift):
        warp = make_warping(np.array(raw) + shift)
        assert warp.forward(np.array([0.0]))[0] == 0.0
        assert warp.forward(np.array([1.0]))[0] == 1.0
        dvals = derivative(warp.forward)(CHECK)
        assert dvals.min() > 0.0

    def test_power_projection_close(self):
        warp = make_warping(power_warp_raw(2.5))
        assert np.abs(warp.forward(CHECK) - CHECK**2.5).max() <= 0.01

    def test_non_finite_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_warping([0.0, np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(InvalidParameterError):
            make_warping([np.inf, 0.0, 0.0, 0.0, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_warping([0.0, 0.0])


class TestInvertWarping:
    def test_identity_round_trip(self):
        inv = invert_warping(identity_warp().forward)
        assert np.abs(inv(CHECK) - CHECK).max() <= 1e-6

    def test_square_warp_inverse_is_sqrt(self):
        # t^2 lies exactly in the quadratic warp space
        square = make_warping(power_warp_raw(2.0))
        region = CHECK[CHECK >= 0.05]
        assert np.abs(square.inverse(region) - np.sqrt(region)).max() <= 0.01

    @given(st.integers(0, 500))
    def test_composition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        warp = make_warping(rng.normal(0.0, 0.5, n_raw_params()))
        composed = warp.inverse(warp.forward(CHECK))
        assert np.abs(composed - CHECK).max() <= 0.01

    def test_non_monotone_input_rejected(self):
        wiggly = SplineRep(warping.WARP, np.array([0.0, 0.6, 0.3, 0.5, 0.9, 1.0]))
        with pytest.raises(MonotonicityError):
            invert_warping(wiggly)


class TestForwardOnGrid:
    """Batched psi and psi' from the grid's cached design matrices against
    each warp's own spline, for both knot layouts of the family."""

    @pytest.mark.parametrize("points", [np.linspace(0, 1, 100), np.linspace(0, 1, 333) ** 1.4])
    def test_matches_spline_evaluation(self, points):
        grid = make_grid(points)
        rng = np.random.default_rng(31)
        warps = [make_warping(rng.normal(0.0, 0.6, n_raw_params())) for _ in range(6)]
        warps = warps[:3] + [w.swapped() for w in warps[3:]] + [identity_warp()]
        psi, dpsi = warping.forward_on_grid(warps, grid)
        for j, warp in enumerate(warps):
            want = np.clip(warp.forward(grid.points), 0.0, 1.0)
            np.testing.assert_allclose(psi[j], want, rtol=0, atol=1e-12)
            want_d = derivative(warp.forward)(grid.points)
            np.testing.assert_allclose(dpsi[j], want_d, rtol=1e-12, atol=1e-12)
        assert psi.min() >= 0.0 and psi.max() <= 1.0

    def test_foreign_layout_rejected(self, grid100):
        # a layout is the family's by identity: uniform_layout(2, 3) equals
        # WARP in value but is another object
        for layout in (uniform_layout(2, 5), uniform_layout(2, 3)):
            foreign = SplineRep(layout, np.linspace(0.0, 1.0, layout.size))
            warps = [identity_warp(), warping.Warping(foreign, foreign)]
            with pytest.raises(InvalidInputError, match="outside the fixed warp family"):
                warping.forward_on_grid(warps, grid100)


class TestRoughnessPenalty:
    def test_identity_penalty_zero(self, grid500):
        assert roughness_penalty(identity_warp(), grid500) == 0.0

    def test_power_two_and_half_closed_form(self, grid500):
        # integral of (2.5 t^1.5 - 1)^2 dt = 2.5^2/4 - 1 = 0.5625
        warp = make_warping(power_warp_raw(2.5))
        assert roughness_penalty(warp, grid500) == pytest.approx(0.5625, rel=0.05)

    def test_square_closed_form(self, grid500):
        # integral of (2t - 1)^2 dt = 1/3
        warp = make_warping(power_warp_raw(2.0))
        assert roughness_penalty(warp, grid500) == pytest.approx(1.0 / 3.0, rel=0.05)


class TestWarpSamples:
    def test_matches_inline_sampling_on_swapped_warp(self):
        # the sampling pipeline._final_warps and `curveclust align` wrote inline
        warp = make_warping(power_warp_raw(1.43)).swapped()
        ts = np.linspace(0.0, 1.0, 101)
        vals = np.clip(warp.forward(ts), 0.0, 1.0)
        inline = [[float(t), float(v)] for t, v in zip(ts, vals)]
        assert json.dumps(warping.warp_samples(warp)) == json.dumps(inline)

    def test_no_warp_reads_the_identity(self):
        ts = np.linspace(0.0, 1.0, 101)
        assert json.dumps(warping.warp_samples(None)) == json.dumps(
            [[float(t), float(t)] for t in ts]
        )


class TestOptimizeWarping:
    def test_self_match(self, grid200):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points))
        for lambda0 in (0.0, 0.5):
            assert similarity(f, f, lambda0).rho == pytest.approx(1.0, abs=1e-4)

    def test_warp_recovery(self, grid500):
        f = refit_on_grid(0, grid500, sine_shape(grid500.points**1.2))
        g = refit_on_grid(1, grid500, sine_shape(grid500.points))
        entry = similarity(f, g, 0.0)
        assert entry.rho >= 0.99
        assert np.abs(entry.warp.forward(CHECK) - CHECK**1.2).max() <= 0.02

    def test_large_penalty_forces_identity(self, grid200):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points**1.3))
        g = refit_on_grid(1, grid200, sine_shape(grid200.points))
        warp = similarity(f, g, 1e3).warp
        assert np.abs(warp.forward(CHECK) - CHECK).max() <= 0.01

    def test_never_below_identity_alignment(self, grid200):
        rng = np.random.default_rng(4)
        f = refit_on_grid(0, grid200, sine_shape(grid200.points) + rng.normal(0, 0.3, 200))
        g = refit_on_grid(1, grid200, np.cos(2 * np.pi * grid200.points**2))
        for lambda0 in (0.0, 0.5, 2.0):
            identity_value = rho_parts(f, g, identity_warp(), lambda0).rho
            assert similarity(f, g, lambda0).rho >= identity_value - 1e-9

    def test_returned_value_matches_fixed_warp_evaluation(self, grid200):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points**0.8))
        g = refit_on_grid(1, grid200, sine_shape(grid200.points))
        entry = similarity(f, g, 0.25)
        again = rho_parts(f, g, entry.warp, 0.25)
        assert abs(again.rho - entry.rho) <= 1e-10

    def test_fewer_evaluations_with_small_budget_still_valid(self, grid200, monkeypatch):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points**1.1))
        g = refit_on_grid(1, grid200, sine_shape(grid200.points))
        monkeypatch.setattr(warping, "_BUDGET_PER_START", 50)
        rho = similarity(f, g, 0.0).rho
        assert rho >= rho_parts(f, g, identity_warp(), 0.0).rho - 1e-9


def _reference_coefficients_from_raw(raw, greville_steps):
    """The raw-to-coefficient map as first written (reference, verbatim)."""
    increments = np.exp(raw - raw.max()) * greville_steps
    coef = np.empty(len(raw) + 1)
    coef[0] = 0.0
    np.cumsum(increments, out=coef[1:])
    coef[1:] /= coef[-1]
    return coef


def _reference_proxy_objective(f, g, lambda0):
    """The proxy objective as first written, one numpy call per step, on the
    grid's cached warp designs.

    Kept verbatim as the reference the lean objective must reproduce bit for
    bit.
    """
    w = f.grid.weights
    fs = f.samples
    f_centered = fs - w @ fs
    f_norm = np.sqrt(w @ (f_centered * f_centered))
    g_bspline = g.spline
    basis = warping.WARP.on_grid(f.grid)
    deriv = warping.WARP.derivative_on_grid(f.grid)
    steps = warping._GREVILLE_STEPS

    def objective(raw: np.ndarray) -> float:
        coef = _reference_coefficients_from_raw(raw, steps)
        psi = basis @ coef
        dpsi = deriv @ coef
        if not np.all(np.isfinite(dpsi)) or dpsi.min() <= 1e-9:
            return 2.0  # numerically flat somewhere; 1/dpsi would blow up
        g_warped = g_bspline(psi)
        gc = g_warped - w @ g_warped
        g_norm = np.sqrt(w @ (gc * gc))
        if g_norm <= ZERO_NORM_TOL:
            return 2.0
        r_fwd = np.clip((w @ (f_centered * gc)) / (f_norm * g_norm), -1.0, 1.0)
        p_fwd = w @ (dpsi - 1.0) ** 2
        wd = w * dpsi
        g_mean_w = wd @ g_warped
        f_mean_w = wd @ fs
        gcw = g_warped - g_mean_w
        fcw = fs - f_mean_w
        denom = np.sqrt((wd @ (gcw * gcw)) * (wd @ (fcw * fcw)))
        if denom <= ZERO_NORM_TOL**2:
            return 2.0
        r_inv = np.clip((wd @ (gcw * fcw)) / denom, -1.0, 1.0)
        p_inv = wd @ (1.0 / dpsi - 1.0) ** 2
        rho = 0.5 * ((r_fwd - lambda0 * p_fwd) + (r_inv - lambda0 * p_inv))
        return -rho if np.isfinite(rho) else 2.0

    return objective


def _reference_budgeted_nelder_mead(objective, x0):
    """The start search as scipy's Nelder-Mead ran it (reference, verbatim):
    restarts with shrinking simplexes inside one evaluation budget."""
    remaining = warping._BUDGET_PER_START
    x, fx = x0, objective(x0)
    step = warping._SIMPLEX_STEP
    while remaining > 2 * (len(x0) + 1):
        simplex = np.vstack([x] + [x + step * e for e in np.eye(len(x0))])
        res = scipy_minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "maxfev": remaining,
                "xatol": warping._XATOL,
                "fatol": warping._FATOL,
                "initial_simplex": simplex,
            },
        )
        remaining -= res.nfev
        if res.fun >= fx - 1e-13:
            break
        x, fx = res.x, res.fun
        step = max(step / 3.0, 1e-3)
    return x


def _reference_final_points(pairs, lambda0):
    """Final point of each start of each pair, one pair and start at a time
    through the reference objective and the reference search."""
    starts, _ = warping._start_points()
    finals = []
    for f, g in pairs:
        objective = _reference_proxy_objective(f, g, lambda0)
        finals.append([_reference_budgeted_nelder_mead(objective, raw) for raw in starts])
    return finals


def _point_bytes(finals):
    return [[x.tobytes() for x in pair] for pair in finals]


def _reference_rho_parts(f, g, warp, lambda0):
    """`rho_parts` as first written, every part computed at every call
    (reference, verbatim)."""
    grid = f.grid
    g_warped = g.spline(warping._checked_warp_values(warp.forward, grid.points))
    r_fwd = corr(f.samples, g_warped, grid.weights)
    p_fwd = roughness_penalty(warp, grid)
    f_unwarped = f.spline(warping._checked_warp_values(warp.inverse, grid.points))
    r_inv = corr(g.samples, f_unwarped, grid.weights)
    p_inv = roughness_penalty(warp.swapped(), grid)
    rho = 0.5 * ((r_fwd - lambda0 * p_fwd) + (r_inv - lambda0 * p_inv))
    return warping.SimilarityEntry(rho, warp, p_fwd, p_inv, r_fwd, r_inv)


def _reference_rescore(f, g, lambda0, finals):
    """The rescore `optimize_warping` ran in the caller, one candidate after
    the other, before the search processes scored their own units (reference,
    verbatim but for `_reference_rho_parts`)."""
    starts, start_warps = warping._start_points()

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
                warp = warping.make_warping(raw)
            entry = _reference_rho_parts(f, g, warp, lambda0)
        except (MonotonicityError, WarpRangeError, ZeroVarianceError):
            continue  # search drifted into a numerically flat warp
        if best is None or entry.rho > best.rho:
            best = entry
    return best


def _entry_bytes(entry):
    """Every number of an entry and both warp coefficient arrays, as bytes."""
    numbers = [entry.rho, entry.penalty_fwd, entry.penalty_inv, entry.r_fwd, entry.r_inv]
    return (
        np.array(numbers).tobytes(),
        entry.warp.forward.coefficients.tobytes(),
        entry.warp.inverse.coefficients.tobytes(),
    )


class TestProxyObjectiveIdentity:
    """The batched proxy objective returns the reference's float for every
    row, bit for bit."""

    @pytest.mark.parametrize("grid_fixture, lambda0", [("grid100", 0.5), ("grid500", 0.0)])
    def test_bit_identical_on_random_raws(self, grid_fixture, lambda0, request):
        grid = request.getfixturevalue(grid_fixture)
        rng = np.random.default_rng(20)
        f = random_smooth_curve(0, grid, rng)
        g = random_smooth_curve(1, grid, rng)
        references = [_reference_proxy_objective(a, b, lambda0) for a, b in ((f, g), (g, f))]

        n_raw = n_raw_params()
        raws = rng.normal(0.0, 1.0, (2400, n_raw)) * rng.uniform(0.01, 3.0, (2400, 1))
        # an end entry far below the rest makes dpsi vanish at 0 or 1 and hits
        # the 2.0 guard; interior and upward outliers may or may not
        raws[:100][np.arange(100), rng.choice([0, n_raw - 1], 100)] = -40.0
        raws[100:150][np.arange(50), rng.integers(0, n_raw, 50)] = -40.0
        raws[150:160][np.arange(10), rng.integers(0, n_raw, 10)] = 40.0
        raws[160] = np.nan

        # two pairs interleaved: row 2i is raw i for (f, g), row 2i + 1 for (g, f),
        # in blocks of 480 rows to keep the arrays small
        values = warping._proxy_values([(f, g), (g, f)], lambda0, np.tile([0, 1], len(raws)))
        points = np.repeat(raws, 2, axis=0)
        batched = [
            value
            for rows in np.array_split(np.arange(len(points)), 10)
            for value in values(rows, points[rows]).tolist()
        ]
        ref_values = [reference(raw) for raw in raws for reference in references]
        assert batched == ref_values
        steps = warping._GREVILLE_STEPS
        for raw, coef in zip(raws, warping._coefficients_from_raw(raws)):
            want = _reference_coefficients_from_raw(raw, steps).tobytes()
            assert warping._coefficients_from_raw(raw).tobytes() == want
            assert coef.tobytes() == want
        assert sum(v == 2.0 for v in ref_values[::2]) >= 100
        assert sum(v != 2.0 for v in ref_values[::2]) >= 2000

    def test_flat_rows_in_a_block(self, grid100):
        # rows 3 and 5 are numerically flat at t = 0 (row 5 so flat that
        # 1/dpsi squared overflows) and row 6 is NaN: each reads 2.0, and every
        # row keeps the bytes of its one-row call and of the reference
        rng = np.random.default_rng(34)
        f, g, h = (random_smooth_curve(i, grid100, rng) for i in range(3))
        pairs = [(f, g), (g, h)]
        row_pairs = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        raws = rng.normal(0.0, 0.5, (8, n_raw_params()))
        raws[3, 0], raws[5, 0], raws[6] = -40.0, -400.0, np.nan
        values = warping._proxy_values(pairs, 0.5, row_pairs)
        rows = np.arange(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = values(rows, raws)
        assert [got[i] for i in (3, 5, 6)] == [2.0, 2.0, 2.0]
        alone = [values(rows[i : i + 1], raws[i : i + 1])[0] for i in rows]
        assert got.tobytes() == np.array(alone).tobytes()
        objectives = [_reference_proxy_objective(a, b, 0.5) for a, b in pairs]
        reference = [objectives[p](raw) for p, raw in zip(row_pairs, raws)]
        assert got.tobytes() == np.array(reference).tobytes()
        # the same rows array at other points reuses its gathers, with the
        # bytes of a fresh array
        moved = raws[::-1] + 0.25
        assert values(rows, moved).tobytes() == values(rows.copy(), moved).tobytes()

    def test_optimize_warping_identical_to_reference(self, grid100, grid500):
        rng = np.random.default_rng(21)
        cases = [(grid100, 0.5), (grid100, 0.0), (grid500, 0.0)]
        pairs = [
            (random_smooth_curve(0, grid, rng), random_smooth_curve(1, grid, rng), lambda0)
            for grid, lambda0 in cases
        ]
        for f, g, lambda0 in pairs:
            (finals,) = _reference_final_points([(f, g)], lambda0)
            entry = similarity(f, g, lambda0)
            ref = _reference_rescore(f, g, lambda0, finals)
            assert _entry_bytes(entry) == _entry_bytes(ref)


def _recording_budget(phases):
    """scipy's evaluation counter for Nelder-Mead, except that it adds to
    `phases` the source line of each evaluation it refuses for want of
    budget: where in the step the budget ran out."""
    counter = _optimize._wrap_scalar_function_maxfun_validation

    def wrap(function, args, maxfun):
        ncalls, counted = counter(function, args, maxfun)

        def recording(x, *more):
            if ncalls[0] >= maxfun:
                caller = sys._getframe(1)
                phases.add(linecache.getline(caller.f_code.co_filename, caller.f_lineno).strip())
            return counted(x, *more)

        return ncalls, recording

    return wrap


class TestLockstepSearch:
    """The lockstep search of a build gives every (pair, start) the final
    point of its scipy-driven search, byte for byte."""

    @pytest.mark.parametrize(
        "grid_fixture, lambda0", [("grid100", 0.5), ("grid100", 0.0), ("grid500", 0.0)]
    )
    def test_final_points_equal_the_scipy_search(self, grid_fixture, lambda0, request, spare_cpus):
        grid = request.getfixturevalue(grid_fixture)
        rng = np.random.default_rng(25)
        curves = [random_smooth_curve(i, grid, rng) for i in range(3)]
        pairs = [(f, g) for i, f in enumerate(curves) for g in curves[i + 1 :]]
        spare_cpus(0)
        assert _point_bytes(warping.final_points(pairs, lambda0)["final"]) == _point_bytes(
            _reference_final_points(pairs, lambda0)
        )

    def test_budget_running_out_mid_step(self, grid100, spare_cpus, monkeypatch):
        # with 33 evaluations a start, these starts run out of budget inside
        # an expansion, a contraction and a shrink
        monkeypatch.setattr(warping, "_BUDGET_PER_START", 33)
        phases = set()
        monkeypatch.setattr(
            _optimize, "_wrap_scalar_function_maxfun_validation", _recording_budget(phases)
        )
        spare_cpus(0)
        rng = np.random.default_rng(9)
        for lambda0 in (0.5, 0.0):
            curves = [random_smooth_curve(i, grid100, rng) for i in range(3)]
            pairs = [(f, g) for i, f in enumerate(curves) for g in curves[i + 1 :]]
            assert _point_bytes(warping.final_points(pairs, lambda0)["final"]) == _point_bytes(
                _reference_final_points(pairs, lambda0)
            )
        assert {"fxe = func(xe)", "fsim[j] = func(sim[j])"} <= phases
        assert phases & {"fxc = func(xc)", "fxcc = func(xcc)"}

    @pytest.mark.parametrize("budget", [33, 400])
    def test_equal_values_ordered_as_scipy_orders_them(self, monkeypatch, budget):
        # a stepped bowl: vertices of equal value are common, so the order
        # np.argsort gives equal values decides which vertex moves next
        monkeypatch.setattr(warping, "_BUDGET_PER_START", budget)
        phases = set()
        monkeypatch.setattr(
            _optimize, "_wrap_scalar_function_maxfun_validation", _recording_budget(phases)
        )
        rng = np.random.default_rng(28)
        x0s = rng.normal(0.0, 1.0, (40, n_raw_params()))
        centre = rng.normal(0.0, 1.0, n_raw_params())

        def stepped(x):
            return float(np.floor(4.0 * np.sum((x - centre) ** 2)) / 4.0)

        result = warping.minimize(lambda rows, points: np.array([stepped(x) for x in points]), x0s)
        reference = [_reference_budgeted_nelder_mead(stepped, x0) for x0 in x0s]
        assert _point_bytes([result.x]) == _point_bytes([reference])
        if budget == 33:
            assert {"fxe = func(xe)", "fsim[j] = func(sim[j])"} <= phases
            assert phases & {"fxc = func(xc)", "fxcc = func(xcc)"}

    @settings(max_examples=20)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["bowl", "stepped", "holed"]),
        st.integers(13, 400),
        st.integers(1, 4),
    )
    def test_any_search_equals_the_scipy_search(self, seed, kind, budget, n_starts):
        # random bowls, tie-heavy stepped bowls and bowls with NaN holes, from
        # random starts: the inserted vertex, the np.argsort fallback, shrinks
        # and budget cut-offs mid-step all run across the examples
        rng = np.random.default_rng(seed)
        n_raw = n_raw_params()
        centre = rng.normal(0.0, 1.0, n_raw)
        scale = rng.uniform(0.1, 3.0, n_raw)
        x0s = rng.normal(0.0, rng.uniform(0.1, 2.0), (n_starts, n_raw))

        def objective(x):
            value = float(np.sum(scale * (x - centre) ** 2))
            if kind == "stepped":
                return math.floor(2.0 * value) / 2.0
            if kind == "holed" and math.sin(5.0 * x[0]) > 0.7:
                return math.nan
            return value

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(warping, "_BUDGET_PER_START", budget)
            result = warping.minimize(
                lambda rows, points: np.array([objective(x) for x in points]), x0s
            )
            reference = [_reference_budgeted_nelder_mead(objective, x0) for x0 in x0s]
        assert _point_bytes([result.x]) == _point_bytes([reference])

    def test_nan_values_ordered_as_scipy_orders_them(self, monkeypatch):
        # NaN on slabs of the space: np.argsort puts NaN last, and the sorted
        # insertion must hand every NaN to it
        fallbacks = []
        ordered = warping._ordered

        def spied(sim, fsim):
            sim, fsim, distinct = ordered(sim, fsim)
            fallbacks.append(not distinct and any(map(math.isnan, fsim)))
            return sim, fsim, distinct

        monkeypatch.setattr(warping, "_ordered", spied)
        rng = np.random.default_rng(29)
        x0s = rng.normal(0.0, 1.0, (20, n_raw_params()))
        centre = rng.normal(0.0, 1.0, n_raw_params())

        def holed(x):
            if math.sin(3.0 * x[1]) > 0.5:
                return math.nan
            return float(np.sum((x - centre) ** 2))

        result = warping.minimize(lambda rows, points: np.array([holed(x) for x in points]), x0s)
        reference = [_reference_budgeted_nelder_mead(holed, x0) for x0 in x0s]
        assert _point_bytes([result.x]) == _point_bytes([reference])
        assert sum(fallbacks) >= 10

    def test_counts_every_evaluation(self, grid100):
        rng = np.random.default_rng(27)
        f, g = random_smooth_curve(0, grid100, rng), random_smooth_curve(1, grid100, rng)
        calls = []
        objective = _reference_proxy_objective(f, g, 0.5)

        def counted(raw):
            calls.append(raw)
            return objective(raw)

        starts, _ = warping._start_points()
        for raw in starts:
            _reference_budgeted_nelder_mead(counted, raw)
        rows = []
        values = warping._proxy_values([(f, g)], 0.5, np.zeros(len(starts), dtype=int))

        def recorded(active, points):
            rows.extend(active.tolist())
            return values(active, points)

        result = warping.minimize(recorded, np.array(starts))
        assert result.nfev == len(rows) == len(calls)
        assert _point_bytes([result.x]) == _point_bytes(_reference_final_points([(f, g)], 0.5))


@pytest.fixture()
def spare_cpus(monkeypatch):
    """Sets how many spare CPUs, and so helper processes, a search sees."""

    def set_count(count):
        monkeypatch.setattr(warping, "_spare_cpus", lambda: count)

    return set_count


@pytest.fixture()
def forks(monkeypatch):
    """The pid of every helper this process forks; each fork passes through."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _search_that(caller_raises=False, helper_dies=False, helper_killed=False):
    """The search of a process's share, except that it raises in this process (where a
    helper then hangs until it is killed), or a helper exits at once with
    status 1 or sends itself SIGKILL."""
    caller, search = os.getpid(), warping.minimize

    def patched(values, x0s):
        if os.getpid() == caller:
            if caller_raises:
                raise RuntimeError("caller's start failed")
        elif caller_raises:
            time.sleep(600)
        elif helper_dies:
            os._exit(1)
        elif helper_killed:
            os.kill(os.getpid(), signal.SIGKILL)
        return search(values, x0s)

    return patched


@contextlib.contextmanager
def _time_limit(seconds):
    def on_alarm(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestHelperProcesses:
    """Starts shared with helper processes give the serial search's bytes."""

    @pytest.fixture()
    def pairs(self, grid100, grid500):
        rng = np.random.default_rng(22)
        cases = [(grid100, 0.5), (grid100, 0.0), (grid500, 0.0)]
        return [
            (random_smooth_curve(0, grid, rng), random_smooth_curve(1, grid, rng), lambda0)
            for grid, lambda0 in cases
        ]

    def test_same_bytes_with_zero_one_and_two_helpers(self, pairs, spare_cpus, forks):
        results = []
        for count in (0, 1, 2):
            spare_cpus(count)
            before = len(forks)
            results.append([_entry_bytes(similarity(f, g, lambda0)) for f, g, lambda0 in pairs])
            assert len(forks) - before == count * len(pairs)  # `count` helpers per search
        assert results[0] == results[1] == results[2]

    def test_final_points_come_back_in_start_order(self, pairs, spare_cpus):
        # two pairs of one grid, both searched at the first pair's lambda0, so
        # units of both pairs share a helper
        (f0, g0, lambda0), (f1, g1, _) = pairs[:2]
        starts, _ = warping._start_points()
        serial = []
        for f, g in ((f0, g0), (f1, g1)):
            (finals,) = _reference_final_points([(f, g)], lambda0)
            serial.append([x.tobytes() for x in finals])
            assert len(set(serial[-1])) == len(starts)
        for count in (1, 2, 4):
            spare_cpus(count)
            finals = warping.final_points([(f0, g0), (f1, g1)], lambda0)["final"]
            assert [[x.tobytes() for x in pair] for pair in finals] == serial

    def test_start_warps_are_shared_and_read_only(self):
        starts, warps = warping._start_points()
        again = warping._start_points()
        assert again[1] is warps and len(starts) == len(warps) == 5
        # the five distinct power projections in order; exponent 1.0 is exact zeros
        want = [power_warp_raw(alpha) for alpha in warping._POWER_STARTS]
        assert [raw.tobytes() for raw in starts] == [raw.tobytes() for raw in want]
        assert len({raw.tobytes() for raw in starts}) == 5
        assert starts[2].tobytes() == np.zeros(n_raw_params()).tobytes()
        for raw, warp in zip(starts, warps):
            built = make_warping(raw)
            assert warp.forward.coefficients.tobytes() == built.forward.coefficients.tobytes()
            assert warp.inverse.coefficients.tobytes() == built.inverse.coefficients.tobytes()
            with pytest.raises(ValueError):
                warp.forward.coefficients[0] = 1.0
            with pytest.raises(ValueError):
                raw[0] = 99.0

    def test_caller_failure_leaves_no_stale_reply(self, pairs, spare_cpus, monkeypatch):
        (f0, g0, lam0), (f1, g1, lam1) = pairs[:2]
        spare_cpus(0)
        serial = _entry_bytes(similarity(f1, g1, lam1))
        monkeypatch.setattr(warping, "minimize", _search_that(caller_raises=True))
        spare_cpus(1)
        with _time_limit(60):
            with pytest.raises(RuntimeError):
                similarity(f0, g0, lam0)  # the helper is killed mid-share
            monkeypatch.undo()
            spare_cpus(1)
            assert _entry_bytes(similarity(f1, g1, lam1)) == serial

    def test_helper_dying_mid_search_leaves_its_starts_to_the_caller(
        self, pairs, spare_cpus, monkeypatch
    ):
        f, g, lambda0 = pairs[0]
        spare_cpus(0)
        serial = _entry_bytes(similarity(f, g, lambda0))
        monkeypatch.setattr(warping, "minimize", _search_that(helper_dies=True))
        spare_cpus(1)
        with _time_limit(60):
            assert _entry_bytes(similarity(f, g, lambda0)) == serial

    def test_no_child_outlives_a_search(self, pairs, spare_cpus, monkeypatch):
        f, g, lambda0 = pairs[0]
        fails, dies = _search_that(caller_raises=True), _search_that(helper_dies=True)
        fork = os.fork
        forked = []

        def second_fork_fails():
            if forked:
                raise OSError("fork failed")
            forked.append(fork())
            return forked[-1]

        spare_cpus(2)
        with _time_limit(60):
            similarity(f, g, lambda0)
            assert_no_child()
            monkeypatch.setattr(warping, "minimize", fails)
            with pytest.raises(RuntimeError):
                similarity(f, g, lambda0)
            assert_no_child()
            monkeypatch.setattr(warping, "minimize", dies)
            similarity(f, g, lambda0)
            assert_no_child()
            monkeypatch.undo()
            spare_cpus(2)
            monkeypatch.setattr(os, "fork", second_fork_fails)
            with pytest.raises(OSError):
                similarity(f, g, lambda0)
            assert len(forked) == 1
            assert_no_child()

    def test_helpers_exit_with_a_killed_caller(self):
        read_end, write_end = os.pipe()
        # each helper writes one byte to the inherited pipe; the caller's own
        # first start SIGKILLs the caller
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from curveclust import warping\n"
            "from curveclust.similarity import similarity\n"
            "from curveclust.curves import refit_on_grid\n"
            "from curveclust.splines import uniform_grid\n"
            "fd, caller = int(sys.argv[1]), os.getpid()\n"
            "fork, search = os.fork, warping.minimize\n"
            "def helper_fork():\n"
            "    pid = fork()\n"
            "    if pid == 0:\n"
            "        os.write(fd, b'h')\n"
            "    return pid\n"
            "def killed(values, x0s):\n"
            "    if os.getpid() == caller:\n"
            "        os.kill(caller, signal.SIGKILL)\n"
            "    return search(values, x0s)\n"
            "os.fork, warping.minimize = helper_fork, killed\n"
            "warping._spare_cpus = lambda: 2\n"
            "grid = uniform_grid(100)\n"
            "f = refit_on_grid(0, grid, np.sin(2 * np.pi * grid.points))\n"
            "g = refit_on_grid(1, grid, np.sin(2 * np.pi * grid.points ** 1.2))\n"
            "similarity(f, g, 0.0)\n"
        )
        src = str(Path(curveclust.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        with os.fdopen(read_end, "rb", buffering=0) as pipe:
            try:
                caller = subprocess.run(
                    [sys.executable, "-c", script, str(write_end)],
                    pass_fds=(write_end,),
                    env=env,
                    timeout=60,
                )
            finally:
                os.close(write_end)
            assert caller.returncode == -signal.SIGKILL
            # the pipe reads EOF once no process holds its write end: the
            # caller and the helpers it forked have all exited
            with _time_limit(60):
                assert pipe.read() == b"hh"

    def test_forked_copy_forks_its_own_helpers(self, pairs, spare_cpus):
        f, g, lambda0 = pairs[0]
        spare_cpus(0)
        serial = _entry_bytes(similarity(f, g, lambda0))
        spare_cpus(1)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(60)  # the default action ends a hung copy
                code = 0 if _entry_bytes(similarity(f, g, lambda0)) == serial else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_stages_without_warping_fork_no_helper(self, grid100, spare_cpus, monkeypatch):
        spare_cpus(1)

        def no_fork():
            raise AssertionError("a helper was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        rng = np.random.default_rng(23)
        curves = [random_smooth_curve(i, grid100, rng) for i in range(8)]
        identity = identity_warp()
        matrix = SimilarityMatrix(
            {
                (f.id, g.id): rho_given_psi(f, g, identity, 0.5)
                for i, f in enumerate(curves)
                for g in curves[i + 1 :]
            },
            [c.id for c in curves],
        )
        dist = distances_from_similarity(matrix)
        sims = matrix.values()
        c_star = float(np.quantile(sims, 0.75))

        def nu(groups):
            return silhouette([set(g) for g in groups], dist) if len(groups) > 1 else -np.inf

        bank = {c.id: c for c in curves}
        partial = assign_groups(list(bank), matrix, c_star, nu)
        candidate_partition(partial, matrix, c_star, nu, {i: frozenset([i]) for i in bank})
        for group in partial.groups:
            combine_group(group, bank, matrix)
        update_all(curves, matrix, 0.5, weight_exponent(sims))
        assert partial.groups


def _matrix_bytes(matrix, curves):
    """rho and warp coefficient bytes of every ordered pair of a matrix."""
    return [
        (
            matrix.rho(f.id, g.id),
            matrix.warp(f.id, g.id).forward.coefficients.tobytes(),
            matrix.warp(f.id, g.id).inverse.coefficients.tobytes(),
        )
        for f in curves
        for g in curves
        if f is not g
    ]


class TestBuildHelpers:
    """A similarity-matrix build deals the (pair, start) units of all its
    pairs over one set of helpers and gives the serial search's bytes."""

    @pytest.fixture()
    def curves(self, grid100):
        rng = np.random.default_rng(24)
        return [random_smooth_curve(i, grid100, rng) for i in range(3)]

    def test_same_bytes_with_zero_one_and_two_helpers(self, curves, spare_cpus, forks):
        results = []
        for count in (0, 1, 2):
            spare_cpus(count)
            before = len(forks)
            results.append(_matrix_bytes(similarity_matrix(curves, 0.5), curves))
            assert len(forks) - before == count  # `count` helpers for the build's 3 pairs
        assert results[0] == results[1] == results[2]
        # and each pair's bytes are those of its search alone
        spare_cpus(0)
        alone = SimilarityMatrix(
            {
                (f.id, g.id): similarity(f, g, 0.5)
                for i, f in enumerate(curves)
                for g in curves[i + 1 :]
            },
            [c.id for c in curves],
        )
        assert results[0] == _matrix_bytes(alone, curves)

    def test_cached_build_forks_nothing(self, curves, spare_cpus, forks):
        cache = PairCache()
        spare_cpus(2)
        first = similarity_matrix(curves, 0.5, cache=cache)
        assert len(forks) == 2
        again = similarity_matrix(curves[::-1], 0.5, cache=cache)
        assert len(forks) == 2
        assert _matrix_bytes(again, curves) == _matrix_bytes(first, curves)

    @pytest.mark.parametrize("cache", [None, PairCache], ids=["no cache", "cache"])
    def test_equal_contents_searched_once(self, curves, spare_cpus, monkeypatch, cache):
        twin = dataclasses.replace(curves[0], id=3)
        assert twin.content_key == curves[0].content_key
        search, searched = warping.minimize, []

        def counted(values, x0s):
            searched.extend(x0s)
            return search(values, x0s)

        monkeypatch.setattr(warping, "minimize", counted)
        spare_cpus(0)
        matrix = similarity_matrix([*curves, twin], 0.5, cache=cache and cache())
        # of the 6 pairs, (1, 3) and (2, 3) repeat the contents of (1, 0) and
        # (2, 0): 4 pairs of 5 starts are searched
        assert len(searched) == 4 * len(warping._POWER_STARTS)
        for other in (1, 2):
            assert matrix.rho(other, 3) == matrix.rho(other, 0)
            assert (
                matrix.warp(other, 3).forward.coefficients.tobytes()
                == matrix.warp(other, 0).forward.coefficients.tobytes()
            )

    @pytest.mark.parametrize("death", ["helper_dies", "helper_killed"])
    def test_helper_dying_mid_build_leaves_its_units_to_the_caller(
        self, curves, spare_cpus, monkeypatch, death
    ):
        spare_cpus(0)
        serial = _matrix_bytes(similarity_matrix(curves, 0.5), curves)
        monkeypatch.setattr(warping, "minimize", _search_that(**{death: True}))
        spare_cpus(2)
        with _time_limit(60):
            assert _matrix_bytes(similarity_matrix(curves, 0.5), curves) == serial

    def test_no_child_outlives_a_build(self, curves, spare_cpus, monkeypatch):
        fails, dies = _search_that(caller_raises=True), _search_that(helper_dies=True)
        spare_cpus(2)
        with _time_limit(60):
            similarity_matrix(curves, 0.5)
            assert_no_child()
            monkeypatch.setattr(warping, "minimize", fails)
            with pytest.raises(RuntimeError):
                similarity_matrix(curves, 0.5)
            assert_no_child()
            monkeypatch.setattr(warping, "minimize", dies)
            similarity_matrix(curves, 0.5)
            assert_no_child()

    def test_every_pair_is_checked_before_any_fork(self, curves, spare_cpus, forks):
        flat = refit_on_grid(3, curves[0].grid, np.ones(len(curves[0].grid)))
        spare_cpus(2)
        with pytest.raises(ZeroVarianceError):
            similarity_matrix([*curves, flat], 0.5)
        with pytest.raises(InvalidParameterError):
            similarity_matrix(curves, float("nan"))
        assert forks == []

    def test_mixed_grids_rejected_before_any_search(
        self, curves, grid200, spare_cpus, forks, monkeypatch
    ):
        def no_search(values, x0s):
            raise AssertionError("a pair search ran")

        monkeypatch.setattr(warping, "minimize", no_search)
        other = random_smooth_curve(3, grid200, np.random.default_rng(26))
        spare_cpus(2)
        for build in (
            lambda: similarity(curves[0], other, 0.5),
            lambda: similarity(other, curves[1], 0.5),
            lambda: similarity_matrix([*curves, other], 0.5),
            lambda: similarity_matrix([*curves, other], 0.5, cache=PairCache()),
        ):
            with pytest.raises(InvalidInputError, match="curves must share the same grid"):
                build()
        assert forks == []


def _recorded_block_sizes(monkeypatch, search=None):
    """The row count of each `minimize` call this process makes from now on;
    each call runs `search` (the real search when None)."""
    sizes, search = [], search or warping.minimize

    def recorded(values, x0s):
        sizes.append(len(x0s))
        return search(values, x0s)

    monkeypatch.setattr(warping, "minimize", recorded)
    return sizes


class TestBlocks:
    """A process's share of a build is searched in the fewest blocks that
    hold at most `_BLOCK_VALUES // grid points` rows, their sizes at most one
    row apart; a row's bytes do not depend on its block."""

    @pytest.mark.parametrize("grid_fixture", ["grid100", "grid500"])
    def test_rows_do_not_depend_on_blocks(self, grid_fixture, request, spare_cpus, monkeypatch):
        grid = request.getfixturevalue(grid_fixture)
        rng = np.random.default_rng(31)
        curves = [random_smooth_curve(i, grid, rng) for i in range(3)]
        pairs = [(curves[0], curves[1]), (curves[2], curves[1])]  # 10 rows
        spare_cpus(0)
        sizes = _recorded_block_sizes(monkeypatch)
        results, blocks = [], []
        # 1-row blocks, the default (two blocks of 5 at grid 500), one block
        for values in (1, warping._BLOCK_VALUES, 10**9):
            monkeypatch.setattr(warping, "_BLOCK_VALUES", values)
            results.append(warping.final_points(pairs, 0.5).tobytes())
            blocks.append(sizes[:])
            sizes.clear()
        assert results[0] == results[1] == results[2]
        default = [10] if len(grid) == 100 else [5, 5]
        assert blocks == [[1] * 10, default, [10]]

    @pytest.mark.parametrize(
        "values, rows, want",
        [
            (400, 10, [3, 3, 4]),  # at most 4 rows: 3 blocks
            (100, 5, [1] * 5),
            (1, 5, [1] * 5),  # fewer values than grid points: 1-row blocks
            (1_000, 45, [9, 9, 9, 9, 9]),
            (1_000, 35, [8, 9, 9, 9]),
            (None, 5, [5]),  # the default keeps a lone pair in one block
        ],
    )
    def test_block_sizes(self, grid100, grid500, spare_cpus, monkeypatch, values, rows, want):
        # the search is skipped (finals at the starts): only the split is tested
        sizes = _recorded_block_sizes(
            monkeypatch, lambda values, x0s: warping.SearchResult(np.array(x0s), len(x0s))
        )
        grid = grid500 if values is None else grid100
        if values is not None:
            monkeypatch.setattr(warping, "_BLOCK_VALUES", values)
        rng = np.random.default_rng(32)
        f = random_smooth_curve(0, grid, rng)
        pairs = [(f, random_smooth_curve(i + 1, grid, rng)) for i in range(rows // 5)]
        spare_cpus(0)
        warping.final_points(pairs, 0.5)
        assert sizes == want


class TestScoredWhereSearched:
    """Each process scores the start and final warps of the units it searched;
    the entries optimize_warping picks from those rows are the caller-side
    rescore's, byte for byte."""

    @pytest.fixture()
    def pairs(self, grid100):
        rng = np.random.default_rng(35)
        curves = [random_smooth_curve(i, grid100, rng) for i in range(3)]
        return [(f, g) for i, f in enumerate(curves) for g in curves[i + 1 :]]

    @staticmethod
    def _entries(pairs, lambda0):
        rows = warping.final_points(pairs, lambda0)
        picked = [warping.optimize_warping(r) for r in rows]
        reference = [
            _reference_rescore(f, g, lambda0, r["final"]) for (f, g), r in zip(pairs, rows)
        ]
        return rows, [_entry_bytes(e) for e in picked], [_entry_bytes(e) for e in reference]

    def test_same_entries_with_zero_one_and_two_helpers(self, pairs, spare_cpus):
        results = []
        for count in (0, 1, 2):
            spare_cpus(count)
            _, picked, reference = self._entries(pairs, 0.5)
            assert picked == reference
            results.append(picked)
        assert results[0] == results[1] == results[2]

    def test_a_final_that_raises_is_skipped(self, pairs, spare_cpus, monkeypatch):
        spare_cpus(0)
        rows, picked, _ = self._entries(pairs, 0.5)
        # the final point that won the first pair, or its first final point
        won = picked[0][1]
        finals = rows[0]["final"]
        chosen = next(
            (x for x in finals if warping._coefficients_from_raw(x).tobytes() == won),
            finals[0],
        ).tobytes()
        build = warping.make_warping

        def refusing(raw):
            if np.asarray(raw).tobytes() == chosen:
                raise MonotonicityError("forced")
            return build(raw)

        monkeypatch.setattr(warping, "make_warping", refusing)
        spare_cpus(1)
        rows, forced, reference = self._entries(pairs, 0.5)
        assert forced == reference
        assert forced[0] != picked[0] and forced[1:] == picked[1:]
        assert [bool(r["scored"][1]) for r in rows[0]] == [x.tobytes() != chosen for x in finals]

    @pytest.mark.parametrize("returned", ["two", "all"])
    def test_a_final_equal_to_a_start_is_skipped(self, pairs, spare_cpus, monkeypatch, returned):
        search = warping.minimize

        def back_at_starts(values, x0s):
            result = search(values, x0s)
            if returned == "all":  # every final equals a start: a start wins
                result.x[:] = x0s
            else:
                result.x[0] = x0s[0]  # a final equal to its own start
                result.x[-1] = warping._start_points()[0][4]  # and one equal to the last start
            return result

        monkeypatch.setattr(warping, "minimize", back_at_starts)
        spare_cpus(1)
        rows, picked, reference = self._entries(pairs, 0.5)
        assert picked == reference
        starts = {raw.tobytes() for raw in warping._start_points()[0]}
        at_starts = sum(x.tobytes() in starts for x in rows["final"].reshape(-1, n_raw_params()))
        assert at_starts == rows.size if returned == "all" else at_starts >= 2

    def test_a_helper_killed_mid_build(self, pairs, spare_cpus, monkeypatch):
        spare_cpus(0)
        _, serial, _ = self._entries(pairs, 0.5)
        caller, score, scored = os.getpid(), warping.rho_parts, []

        def killed_after_two(*args):
            if os.getpid() != caller:
                scored.append(1)  # this process's own list after the fork
                if len(scored) > 2:  # dies with some of its rows written
                    os.kill(os.getpid(), signal.SIGKILL)
            return score(*args)

        monkeypatch.setattr(warping, "rho_parts", killed_after_two)
        spare_cpus(2)
        with _time_limit(60):
            _, picked, reference = self._entries(pairs, 0.5)
        assert picked == reference == serial


class TestNoScorableCandidate:
    """A pair none of whose starts and final points could be scored exactly
    is degenerate data, not a crash."""

    @pytest.fixture()
    def curves(self, grid100):
        rng = np.random.default_rng(38)
        return [random_smooth_curve(i, grid100, rng) for i in range(3)]

    def test_similarity_and_matrix_raise(self, curves, spare_cpus, monkeypatch):
        def out_of_range(*args):
            raise WarpRangeError("forced")

        monkeypatch.setattr(warping, "rho_parts", out_of_range)
        spare_cpus(1)  # the helper is forked after the patch and sees it too
        with _time_limit(60):
            with pytest.raises(DegenerateDataError, match="no warp of the pair"):
                similarity(curves[0], curves[1], 0.5)
            for cache in (None, PairCache()):
                with pytest.raises(DegenerateDataError, match="no warp of the pair"):
                    similarity_matrix(curves, 0.5, cache=cache)
                assert cache is None or cache.get(curves[0], curves[1], 0.5) is None


class TestGridParts:
    """What rho_parts needs of a warp alone is computed once per grid, kept
    read-only on the warp, and equals a fresh computation."""

    @pytest.mark.parametrize("grid_fixture", ["grid100", "grid500"])
    def test_cached_parts_equal_fresh_ones(self, grid_fixture, request):
        grid = request.getfixturevalue(grid_fixture)
        rng = np.random.default_rng(36)
        curves = [random_smooth_curve(i, grid, rng) for i in range(3)]
        warps = [make_warping(rng.normal(0.0, 0.5, n_raw_params())) for _ in range(4)]
        warps += [w.swapped() for w in warps] + [identity_warp()]
        for warp in warps:
            psi, psi_inv, p_fwd, p_inv = parts = warping._grid_parts(warp, grid)
            assert warping._grid_parts(warp, grid) is parts
            points = grid.points
            assert psi.tobytes() == warping._checked_warp_values(warp.forward, points).tobytes()
            assert psi_inv.tobytes() == warping._checked_warp_values(warp.inverse, points).tobytes()
            assert (p_fwd, p_inv) == (
                roughness_penalty(warp, grid),
                roughness_penalty(warp.swapped(), grid),
            )
            for values in (psi, psi_inv):
                with pytest.raises(ValueError):
                    values[0] = 0.5
            for f, g in ((curves[0], curves[1]), (curves[2], curves[0])):
                for lambda0 in (0.0, 0.5):
                    twice = [rho_parts(f, g, warp, lambda0) for _ in range(2)]
                    want = _entry_bytes(_reference_rho_parts(f, g, warp, lambda0))
                    assert [_entry_bytes(e) for e in twice] == [want, want]

    @pytest.mark.parametrize("grid_fixture", ["grid100", "grid500"])
    def test_start_warp_scores_equal_a_fresh_warp_of_the_start(self, grid_fixture, request):
        # what lets the pick keep a final point equal to a start: its fresh
        # warp scores exactly as the shared start warp, so it never wins
        grid = request.getfixturevalue(grid_fixture)
        rng = np.random.default_rng(39)
        curves = [random_smooth_curve(i, grid, rng) for i in range(3)]
        starts, start_warps = warping._start_points()
        for raw, shared in zip(starts, start_warps):
            fresh = make_warping(raw.copy())
            for f, g in ((curves[0], curves[1]), (curves[2], curves[0])):
                for lambda0 in (0.0, 0.5):
                    assert _entry_bytes(rho_parts(f, g, fresh, lambda0)) == _entry_bytes(
                        rho_parts(f, g, shared, lambda0)
                    )

    def test_parts_are_kept_per_grid(self, grid100, grid500):
        warp = make_warping(np.random.default_rng(37).normal(0.0, 0.5, n_raw_params()))
        small, large = warping._grid_parts(warp, grid100), warping._grid_parts(warp, grid500)
        assert len(small[0]) == 100 and len(large[0]) == 500
        assert set(warp.on_grid) == {grid100.key, grid500.key}
        # an equal grid built apart shares the key, and so the parts
        assert warping._grid_parts(warp, make_grid(grid100.points.copy())) is small
