import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curveclust.curves import normalize, refit_on_grid
from curveclust.errors import MissingSimilaritiesError
from curveclust.products import center_inner, warp_weighted_inner, warp_weighted_mean
from curveclust.similarity import similarity_matrix
from curveclust.splines import derivative, evaluate, uniform_grid
from curveclust.updating import (
    UpdateContext,
    _Quantities,
    _shrinkage_parts,
    select_update_weights,
    shrinkage_constant,
    update_all,
    update_curve,
    verify_improvement,
    weight_exponent,
)
from curveclust.warping import identity_warping, make_warping, n_raw_params, power_warp_raw

from .conftest import random_smooth_curve, sine_shape

GRID = uniform_grid(300)


def make_context(rng, k, lambda0=0.0, tau=1.0, sims=None, n_js=None, raw_scale=0.35):
    target = random_smooth_curve(0, GRID, rng)
    others = [random_smooth_curve(j + 1, GRID, rng) for j in range(k - 1)]
    warps = [make_warping(rng.normal(0, raw_scale, n_raw_params())) for _ in range(k - 1)]
    if sims is None:
        sims = [0.5 + 0.4 * rng.random() for _ in range(k - 1)]
    if n_js is None:
        n_js = [int(rng.integers(1, 4)) for _ in range(k - 1)]
    return UpdateContext(
        target=target,
        others=others,
        warps=warps,
        sims=list(sims),
        n_js=list(n_js),
        tau=tau,
        lambda0=lambda0,
    )


def warp_derivative(warp):
    return evaluate(derivative(warp.forward), GRID.points)


class TestWeightedInner:
    def test_identity_warp_matches_plain_inner(self):
        rng = np.random.default_rng(0)
        f, g = rng.normal(size=len(GRID)), rng.normal(size=len(GRID))
        plain = center_inner(f, g, GRID.weights)
        weighted = warp_weighted_inner(f, g, warp_derivative(identity_warping()), GRID.weights)
        assert weighted == pytest.approx(plain, abs=1e-10)

    def test_constant_curve_gives_zero(self):
        warp = make_warping(power_warp_raw(1.5))
        f = np.full(len(GRID), 2.0)
        g = np.sin(GRID.points)
        assert warp_weighted_inner(f, g, warp_derivative(warp), GRID.weights) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_weighted_mean_square_warp(self):
        # with psi = t^2, E f = int t * 2t dt = 2/3 for f(t) = t
        warp = make_warping(power_warp_raw(2.0))
        mean = warp_weighted_mean(GRID.points, warp_derivative(warp), GRID.weights)
        assert mean == pytest.approx(2.0 / 3.0, abs=1e-3)

    @given(st.integers(0, 200))
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=len(GRID))
        warp = make_warping(rng.normal(0, 0.6, n_raw_params()))
        assert warp_weighted_inner(f, f, warp_derivative(warp), GRID.weights) >= -1e-12


class TestWeightExponent:
    def test_half_gives_one(self):
        assert weight_exponent([0.5, 0.1]) == pytest.approx(1.0)

    def test_quarter_gives_half(self):
        assert weight_exponent([0.25]) == pytest.approx(0.5)

    def test_clamping_near_one(self):
        # without clamping the exponent would diverge
        assert weight_exponent([1.0 - 1e-9]) == pytest.approx(
            math.log(0.5) / math.log(1.0 - 1e-6), rel=1e-6
        )

    def test_empty_rejected(self):
        with pytest.raises(MissingSimilaritiesError):
            weight_exponent([1.0, 1.0])


class TestSelectWeights:
    def test_identical_neighbor_zeroed(self):
        # a neighbor matching the target exactly leaves a zero residual
        target = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        ctx = UpdateContext(
            target=target,
            others=[target],
            warps=[identity_warping()],
            sims=[1.0],
            n_js=[1],
            tau=1.0,
            lambda0=0.0,
        )
        theta, all_zero = select_update_weights(ctx)
        assert all_zero and np.all(theta == 0.0)

    def test_anticorrelated_neighbor_zeroed(self):
        target = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        flipped = normalize(refit_on_grid(1, GRID, -sine_shape(GRID.points)))
        ctx = UpdateContext(
            target=target,
            others=[flipped],
            warps=[identity_warping()],
            sims=[-1.0],
            n_js=[1],
            tau=1.0,
            lambda0=0.0,
        )
        theta, all_zero = select_update_weights(ctx)
        assert all_zero

    def test_proportionality_arithmetic(self):
        # survivors with (n, w) = (1, 1.0) and (2, 0.8), tau = 1
        rng = np.random.default_rng(42)
        target = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        others = [
            normalize(
                refit_on_grid(
                    j + 1, GRID, sine_shape(GRID.points) + rng.normal(0, 0.25, len(GRID))
                )
            )
            for j in range(2)
        ]
        ctx = UpdateContext(
            target=target,
            others=others,
            warps=[identity_warping(), identity_warping()],
            sims=[1.0, 0.8],
            n_js=[1, 2],
            tau=1.0,
            lambda0=0.0,
        )
        theta, all_zero = select_update_weights(ctx)
        assert not all_zero
        np.testing.assert_allclose(theta, [1.0 / 2.6, 1.6 / 2.6], atol=1e-12)

    @given(st.integers(0, 300))
    def test_simplex_property(self, seed):
        rng = np.random.default_rng(seed)
        ctx = make_context(rng, k=int(rng.integers(2, 5)))
        theta, all_zero = select_update_weights(ctx)
        assert np.all(theta >= 0.0) and np.all(theta <= 1.0)
        if not all_zero:
            assert theta.sum() == pytest.approx(1.0, abs=1e-12)
        else:
            assert np.all(theta == 0.0)


def reference_shrinkage(ctx, theta):
    """Independent loop-based transcription of the two bound quantities."""
    grid = ctx.target.grid
    w = grid.weights
    f1 = ctx.target.samples

    def plain(u, v):
        uc = u - w @ u
        vc = v - w @ v
        return float(w @ (uc * vc))

    warped = [o.spline(np.clip(wp.forward(grid.points), 0, 1)) for o, wp in zip(ctx.others, ctx.warps)]
    dpsis = [evaluate(derivative(wp.forward), grid.points) for wp in ctx.warps]
    norms = [math.sqrt(plain(h, h)) for h in warped]
    unit = [h / c for h, c in zip(warped, norms)]
    g0 = sum(t * u for t, u in zip(theta, unit))
    s = sum(unit)
    s0 = sum((h - plain(h, f1) * f1) / c for h, c in zip(warped, norms))

    lc5 = None
    denom = 2.0 * plain(s, f1) * plain(g0, s0)
    if abs(denom) > 1e-12:
        resid = g0 - plain(g0, f1) * f1
        lc5 = (plain(resid, resid) * plain(s, f1) ** 2 - plain(g0, s0) ** 2) / denom - plain(
            g0, f1
        )

    def weighted(u, v, dpsi):
        mu = w @ (u * dpsi)
        mv = w @ (v * dpsi)
        return float(w @ ((u - mu) * (v - mv) * dpsi))

    alphas, betas, floor_terms = [], [], []
    for h, dpsi in zip(warped, dpsis):
        n1 = math.sqrt(weighted(f1, f1, dpsi))
        a = weighted(f1, h, dpsi) / n1
        b = weighted(g0, h, dpsi) / n1
        d = 2.0 * weighted(f1, g0, dpsi) / n1**2
        e = math.sqrt(max(weighted(g0, g0, dpsi), 0.0)) / n1
        alphas.append(b - 0.5 * a * d)
        betas.append(
            0.5 * (a * e**2 + b * d + abs(b) * e)
            + (3.0 / math.sqrt(2.0)) * (abs(a) + 1.0) * (abs(d) + e) ** 2
        )
        floor_terms.append(max(e, abs(b)))
    ratio = sum(betas) / sum(alphas) if sum(alphas) > 0 else -math.inf
    lc6 = max(ratio, max(floor_terms))
    lam = lc6 if lc5 is None else max(lc5, lc6)
    return lam, lc5, lc6


class TestShrinkageConstant:
    def test_dual_implementation_oracle(self):
        agreements = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            ctx = make_context(rng, k=int(rng.integers(2, 5)))
            ctx = UpdateContext(
                target=normalize(ctx.target),
                others=[normalize(c) for c in ctx.others],
                warps=ctx.warps,
                sims=ctx.sims,
                n_js=ctx.n_js,
                tau=ctx.tau,
                lambda0=ctx.lambda0,
            )
            theta, all_zero = select_update_weights(ctx)
            if all_zero:
                continue
            lam = shrinkage_constant(ctx, theta)
            ref_lam, _, _ = reference_shrinkage(ctx, theta)
            assert lam == pytest.approx(ref_lam, rel=1e-8)
            agreements += 1
            if agreements >= 20:
                break
        assert agreements >= 20

    def test_floor_term_bound(self):
        rng = np.random.default_rng(5)
        ctx = make_context(rng, k=3)
        ctx = UpdateContext(
            target=normalize(ctx.target),
            others=[normalize(c) for c in ctx.others],
            warps=ctx.warps,
            sims=ctx.sims,
            n_js=ctx.n_js,
            tau=ctx.tau,
            lambda0=0.0,
        )
        theta, all_zero = select_update_weights(ctx)
        if all_zero:
            pytest.skip("instance zeroed out")
        q = _Quantities(ctx)
        lam, lc5, lc6, g0, _ = _shrinkage_parts(ctx, theta, q)
        for j, (h, dpsi) in enumerate(zip(q.warped, q.dpsi)):
            n1 = q.f1_wnorms[j]
            e = math.sqrt(max(warp_weighted_inner(g0, g0, dpsi, GRID.weights), 0)) / n1
            b = warp_weighted_inner(g0, h, dpsi, GRID.weights) / n1
            assert lc6 >= max(e, abs(b)) - 1e-12

    def test_conditions_positive_for_survivors(self):
        # the aggregate residual quantities are positive whenever weights survive
        found = 0
        for seed in range(30):
            rng = np.random.default_rng(seed + 500)
            ctx = make_context(rng, k=3)
            ctx = UpdateContext(
                target=normalize(ctx.target),
                others=[normalize(c) for c in ctx.others],
                warps=ctx.warps,
                sims=ctx.sims,
                n_js=ctx.n_js,
                tau=ctx.tau,
                lambda0=0.0,
            )
            q = _Quantities(ctx)
            theta, all_zero = select_update_weights(ctx, _q=q)
            if all_zero:
                continue
            found += 1
            g0 = theta @ q.unit
            c3 = center_inner(g0, q.resid_sum, GRID.weights)
            _, _, _, _, alpha_sum = _shrinkage_parts(ctx, theta, q)
            assert c3 > 0.0
            assert alpha_sum > 0.0
        assert found >= 5


class TestUpdateCurve:
    def test_all_zero_flag_identity(self):
        target = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        ctx = UpdateContext(
            target=target,
            others=[target],
            warps=[identity_warping()],
            sims=[1.0],
            n_js=[1],
            tau=1.0,
            lambda0=0.0,
        )
        assert update_curve(ctx) is target

    def test_huge_shrinkage_leaves_curve_nearly_unchanged(self, monkeypatch):
        rng = np.random.default_rng(8)
        ctx = make_context(rng, k=3)
        ctx = UpdateContext(
            target=normalize(ctx.target),
            others=[normalize(c) for c in ctx.others],
            warps=ctx.warps,
            sims=ctx.sims,
            n_js=ctx.n_js,
            tau=ctx.tau,
            lambda0=0.0,
        )
        import curveclust.updating as updating

        real = updating._shrinkage_parts

        def forced(ctx_, theta_, q_):
            lam, lc5, lc6, g0, alpha_sum = real(ctx_, theta_, q_)
            return 1e9, lc5, lc6, g0, alpha_sum

        monkeypatch.setattr(updating, "_shrinkage_parts", forced)
        updated = update_curve(ctx)
        assert np.abs(updated.samples - ctx.target.samples).max() <= 1e-6

    def test_metadata_carried_over(self):
        rng = np.random.default_rng(12)
        ctx = make_context(rng, k=3)
        target = normalize(
            refit_on_grid(7, GRID, ctx.target.samples, n_orig=3, members=frozenset({1, 2, 7}))
        )
        ctx = UpdateContext(
            target=target,
            others=[normalize(c) for c in ctx.others],
            warps=ctx.warps,
            sims=ctx.sims,
            n_js=ctx.n_js,
            tau=ctx.tau,
            lambda0=0.0,
        )
        updated = update_curve(ctx)
        assert updated.id == 7
        assert updated.n_orig == 3
        assert updated.members == frozenset({1, 2, 7})


class TestUpdateAll:
    def test_single_curve_unchanged(self):
        curve = refit_on_grid(0, GRID, sine_shape(GRID.points))
        assert update_all([curve], None, 0.0, 1.0) == [curve]

    def test_identical_pair_unchanged(self):
        base = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        twin = normalize(refit_on_grid(1, GRID, sine_shape(GRID.points)))
        matrix = similarity_matrix([base, twin], 0.0)
        updated = update_all([base, twin], matrix, 0.0, 1.0)
        np.testing.assert_allclose(updated[0].samples, base.samples, atol=1e-12)
        np.testing.assert_allclose(updated[1].samples, twin.samples, atol=1e-12)

    def test_mean_similarity_does_not_decrease(self):
        curves = [
            refit_on_grid(i, GRID, sine_shape(np.clip(GRID.points**a, 0, 1)))
            for i, a in enumerate((0.9, 1.0, 1.1))
        ]
        matrix = similarity_matrix(curves, 0.0)
        tau = weight_exponent(matrix.values())
        updated = update_all(curves, matrix, 0.0, tau)
        after = similarity_matrix(updated, 0.0)
        assert after.mean_rho() >= matrix.mean_rho() - 1e-6


class TestImprovementGuarantee:
    def test_random_instances(self):
        qualifying = 0
        for seed in range(60):
            rng = np.random.default_rng(9000 + seed)
            ctx = make_context(rng, k=int(rng.integers(2, 5)))
            from curveclust.warping import rho_parts

            ctx = UpdateContext(
                target=ctx.target,
                others=ctx.others,
                warps=ctx.warps,
                sims=[
                    rho_parts(ctx.target, o, wp, ctx.lambda0).rho
                    for o, wp in zip(ctx.others, ctx.warps)
                ],
                n_js=ctx.n_js,
                tau=ctx.tau,
                lambda0=ctx.lambda0,
            )
            check = verify_improvement(ctx)
            if check.qualifies:
                qualifying += 1
                assert check.sum_after >= check.sum_before - 1e-6
        assert qualifying >= 10
