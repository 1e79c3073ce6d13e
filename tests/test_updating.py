import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curveclust.curves import normalize, refit_on_grid
from curveclust.errors import DegenerateDataError, MissingSimilaritiesError
from curveclust.products import center_inner, centered_norm, warp_weighted_rows
from curveclust.similarity import SimilarityMatrix, rho_given_psi, similarity_matrix
from curveclust.splines import derivative, uniform_grid
from curveclust.updating import (
    UpdateContext,
    _Quantities,
    _shrinkage_parts,
    select_update_weights,
    update_all,
    update_curve,
    weight_exponent,
)
from curveclust.warping import (
    forward_on_grid,
    make_warping,
    n_raw_params,
    power_warp_raw,
)

from .conftest import identity_warp, random_smooth_curve, sine_shape, standing_for
from .oracles import verify_improvement, warp_weighted_inner, warp_weighted_mean

GRID = uniform_grid(300)


def make_context(rng, k, lambda0=0.0, tau=1.0, sims=None, raw_scale=0.35):
    """k - 1 random neighbors, each standing for 1 to 3 original curves."""
    target = random_smooth_curve(0, GRID, rng)
    others = [random_smooth_curve(j + 1, GRID, rng) for j in range(k - 1)]
    warps = [make_warping(rng.normal(0, raw_scale, n_raw_params())) for _ in range(k - 1)]
    if sims is None:
        sims = [0.5 + 0.4 * rng.random() for _ in range(k - 1)]
    others = [standing_for(other, int(rng.integers(1, 4))) for other in others]
    return UpdateContext(
        target=target,
        others=others,
        warps=warps,
        sims=list(sims),
        tau=tau,
        lambda0=lambda0,
    )


def warp_derivative(warp):
    return derivative(warp.forward)(GRID.points)


class TestWeightedInner:
    def test_identity_warp_matches_plain_inner(self):
        rng = np.random.default_rng(0)
        f, g = rng.normal(size=len(GRID)), rng.normal(size=len(GRID))
        plain = center_inner(f, g, GRID.weights)
        weighted = warp_weighted_inner(f, g, warp_derivative(identity_warp()), GRID.weights)
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
            warps=[identity_warp()],
            sims=[1.0],
            tau=1.0,
            lambda0=0.0,
        )
        theta, all_zero = select_update_weights(ctx, _Quantities(ctx))
        assert all_zero and np.all(theta == 0.0)

    def test_anticorrelated_neighbor_zeroed(self):
        target = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        flipped = normalize(refit_on_grid(1, GRID, -sine_shape(GRID.points)))
        ctx = UpdateContext(
            target=target,
            others=[flipped],
            warps=[identity_warp()],
            sims=[-1.0],
            tau=1.0,
            lambda0=0.0,
        )
        theta, all_zero = select_update_weights(ctx, _Quantities(ctx))
        assert all_zero

    @staticmethod
    def two_neighbor_context(counts, sims):
        """Two noisy sines, standing for `counts` original curves, as the
        neighbors of a clean one, at identity warps and tau = 1."""
        rng = np.random.default_rng(42)
        target = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        others = [
            standing_for(
                normalize(
                    refit_on_grid(
                        j + 1, GRID, sine_shape(GRID.points) + rng.normal(0, 0.25, len(GRID))
                    )
                ),
                count,
            )
            for j, count in enumerate(counts)
        ]
        return UpdateContext(
            target=target,
            others=others,
            warps=[identity_warp(), identity_warp()],
            sims=sims,
            tau=1.0,
            lambda0=0.0,
        )

    def test_proportionality_arithmetic(self):
        # survivors with (n, w) = (1, 1.0) and (2, 0.8), tau = 1
        ctx = self.two_neighbor_context([1, 2], [1.0, 0.8])
        theta, all_zero = select_update_weights(ctx, _Quantities(ctx))
        assert not all_zero
        np.testing.assert_allclose(theta, [1.0 / 2.6, 1.6 / 2.6], atol=1e-12)

    def test_weight_is_the_neighbor_member_count(self):
        # at equal similarity, a neighbor standing for 3 originals weighs 3x
        ctx = self.two_neighbor_context([1, 3], [0.8, 0.8])
        assert [other.n_orig for other in ctx.others] == [1, 3]
        theta, all_zero = select_update_weights(ctx, _Quantities(ctx))
        assert not all_zero
        np.testing.assert_allclose(theta, [0.25, 0.75], atol=1e-12)

    @given(st.integers(0, 300))
    def test_simplex_property(self, seed):
        rng = np.random.default_rng(seed)
        ctx = make_context(rng, k=int(rng.integers(2, 5)))
        theta, all_zero = select_update_weights(ctx, _Quantities(ctx))
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
    dpsis = [derivative(wp.forward)(grid.points) for wp in ctx.warps]
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
    return lam, lc5, lc6, sum(alphas)


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
                tau=ctx.tau,
                lambda0=ctx.lambda0,
            )
            q = _Quantities(ctx)
            theta, all_zero = select_update_weights(ctx, q)
            if all_zero:
                continue
            lam = _shrinkage_parts(theta, q)[0]
            ref_lam = reference_shrinkage(ctx, theta)[0]
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
            tau=ctx.tau,
            lambda0=0.0,
        )
        q = _Quantities(ctx)
        theta, all_zero = select_update_weights(ctx, q)
        if all_zero:
            pytest.skip("instance zeroed out")
        lam, lc5, lc6, g0, _ = _shrinkage_parts(theta, q)
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
                tau=ctx.tau,
                lambda0=0.0,
            )
            q = _Quantities(ctx)
            theta, all_zero = select_update_weights(ctx, q)
            if all_zero:
                continue
            found += 1
            g0 = theta @ q.unit
            c3 = center_inner(g0, q.resid_sum, GRID.weights)
            _, _, _, _, alpha_sum = _shrinkage_parts(theta, q)
            assert c3 > 0.0
            assert alpha_sum > 0.0
        assert found >= 5


class TestUpdateCurve:
    def test_all_zero_flag_identity(self):
        target = normalize(refit_on_grid(0, GRID, sine_shape(GRID.points)))
        ctx = UpdateContext(
            target=target,
            others=[target],
            warps=[identity_warp()],
            sims=[1.0],
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
            tau=ctx.tau,
            lambda0=0.0,
        )
        import curveclust.updating as updating

        real = updating._shrinkage_parts

        def forced(theta_, q_):
            lam, lc5, lc6, g0, alpha_sum = real(theta_, q_)
            return 1e9, lc5, lc6, g0, alpha_sum

        monkeypatch.setattr(updating, "_shrinkage_parts", forced)
        updated = update_curve(ctx)
        assert np.abs(updated.samples - ctx.target.samples).max() <= 1e-6

    def test_metadata_carried_over(self):
        rng = np.random.default_rng(12)
        ctx = make_context(rng, k=3)
        target = normalize(
            refit_on_grid(7, GRID, ctx.target.samples, members=frozenset({1, 2, 7}))
        )
        ctx = UpdateContext(
            target=target,
            others=[normalize(c) for c in ctx.others],
            warps=ctx.warps,
            sims=ctx.sims,
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
                tau=ctx.tau,
                lambda0=ctx.lambda0,
            )
            check = verify_improvement(ctx)
            if check.qualifies:
                qualifying += 1
                assert check.sum_after >= check.sum_before - 1e-6
        assert qualifying >= 10


def mixed_layout_context(rng, k):
    """A context of k - 1 neighbors whose warps alternate between the warp
    layout and a swapped warp, whose forward is the 23-knot inverse."""
    ctx = make_context(rng, k)
    ctx.warps = [w.swapped() if j % 2 else w for j, w in enumerate(ctx.warps)]
    return ctx


def loop_quantities(ctx):
    """Loop transcription of _Quantities: one scalar product per call, with psi
    and psi' evaluated through the warp's own spline."""
    grid = ctx.target.grid
    w = grid.weights
    f1 = ctx.target.samples
    warped = [
        o.spline(np.clip(wp.forward(grid.points), 0.0, 1.0))
        for o, wp in zip(ctx.others, ctx.warps)
    ]
    dpsi = [derivative(wp.forward)(grid.points) for wp in ctx.warps]
    k = len(warped)
    norms = np.array([centered_norm(h, w) for h in warped])
    unit = [h / c for h, c in zip(warped, norms)]
    ip_f1 = np.array([center_inner(f1, h, w) for h in warped])
    resid_sum = sum((h - ip * f1) / c for h, ip, c in zip(warped, ip_f1, norms))
    res1 = np.array([center_inner(u, resid_sum, w) for u in unit])
    f1_wnorms = np.empty(k)
    w_resid = np.empty((k, len(grid)))
    for l in range(k):
        nw = warp_weighted_inner(f1, f1, dpsi[l], w)
        f1_wnorms[l] = math.sqrt(nw)
        ip_w = warp_weighted_inner(warped[l], f1, dpsi[l], w)
        w_resid[l] = (warped[l] - ip_w * f1 / nw) / f1_wnorms[l]
    res2 = np.array(
        [
            sum(warp_weighted_inner(unit[j], w_resid[l], dpsi[l], w) for l in range(k))
            for j in range(k)
        ]
    )
    return {
        "norms": norms,
        "ip_f1": ip_f1,
        "res1": res1,
        "f1_wnorms": f1_wnorms,
        "w_resid": w_resid,
        "res2": res2,
    }


def close(value, want):
    np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12)


class TestBatchedQuantities:
    """The whole-array quantities against the scalar loop they replace."""

    @pytest.mark.parametrize("seed", range(12))
    def test_quantities_match_loop(self, seed):
        rng = np.random.default_rng(700 + seed)
        ctx = mixed_layout_context(rng, k=int(rng.integers(3, 8)))
        q = _Quantities(ctx)
        ref = loop_quantities(ctx)
        for name in ("norms", "ip_f1", "res1", "f1_wnorms", "w_resid", "res2"):
            close(getattr(q, name), ref[name])

    @pytest.mark.parametrize("seed", range(12))
    def test_shrinkage_parts_match_loop(self, seed):
        rng = np.random.default_rng(800 + seed)
        ctx = mixed_layout_context(rng, k=int(rng.integers(3, 8)))
        q = _Quantities(ctx)
        theta = rng.dirichlet(np.ones(len(ctx.others)))
        lam, lc5, lc6, _, alpha_sum = _shrinkage_parts(theta, q)
        ref_lam, ref_lc5, ref_lc6, ref_alpha_sum = reference_shrinkage(ctx, theta)
        close(lam, ref_lam)
        close(lc6, ref_lc6)
        close(alpha_sum, ref_alpha_sum)
        assert (lc5 is None) == (ref_lc5 is None)
        if lc5 is not None:
            close(lc5, ref_lc5)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
    def test_weighted_rows_match_scalar_inner(self, seed, k, one_curve):
        rng = np.random.default_rng(seed)
        warps = [make_warping(rng.normal(0, 0.5, n_raw_params())) for _ in range(k)]
        warps = [w.swapped() if rng.random() < 0.5 else w for w in warps]
        _, dpsi = forward_on_grid(warps, GRID)
        f = rng.normal(size=len(GRID)) + rng.normal()
        g = rng.normal(size=len(GRID) if one_curve else (k, len(GRID))) + rng.normal()
        rows = warp_weighted_rows(g, dpsi, GRID.weights)
        for l in range(k):
            g_l = g if one_curve else g[l]
            close(f @ rows[l], warp_weighted_inner(f, g_l, dpsi[l], GRID.weights))

    def test_zero_seminorm_neighbor_raises(self):
        rng = np.random.default_rng(3)
        ctx = mixed_layout_context(rng, k=4)
        ctx.others[1] = refit_on_grid(9, GRID, np.full(len(GRID), 0.4))
        with pytest.raises(DegenerateDataError, match="zero seminorm"):
            _Quantities(ctx)

    def test_target_constant_under_a_neighbor_measure_raises(self):
        rng = np.random.default_rng(4)
        ctx = mixed_layout_context(rng, k=4)
        ctx.target = refit_on_grid(0, GRID, np.full(len(GRID), -1.5))
        with pytest.raises(DegenerateDataError, match="warp-weighted seminorm"):
            _Quantities(ctx)


def warped_matrix(curves, rng):
    """A similarity matrix over `curves` with random non-identity warps, so
    that each update reads warps of both knot layouts."""
    entries = {}
    for i, f in enumerate(curves):
        for g in curves[i + 1 :]:
            warp = make_warping(rng.normal(0, 0.3, n_raw_params()))
            entries[f.id, g.id] = rho_given_psi(f, g, warp, 0.5)
    return SimilarityMatrix(entries, [c.id for c in curves])


class TestUpdateAllOrder:
    def curves_and_matrix(self):
        rng = np.random.default_rng(21)
        base = random_smooth_curve(0, GRID, rng)
        curves = [
            refit_on_grid(i, GRID, (1.0 + i) * (base.samples + rng.normal(0, 0.3, len(GRID))))
            for i in range(6)
        ]
        return curves, warped_matrix(curves, rng)

    def test_shuffled_input_gives_identical_bytes(self):
        curves, matrix = self.curves_and_matrix()
        first = update_all(curves, matrix, 0.5, 1.0)
        for seed in range(3):
            shuffled = list(curves)
            np.random.default_rng(seed).shuffle(shuffled)
            again = update_all(shuffled, matrix, 0.5, 1.0)
            assert [c.id for c in again] == [c.id for c in first]
            for a, b in zip(again, first):
                assert a.samples.tobytes() == b.samples.tobytes()

    def test_same_bytes_as_renormalizing_every_curve_before_each_update(self):
        curves, matrix = self.curves_and_matrix()
        pool = {c.id: c for c in curves}
        for target_id in sorted(pool):
            pool = {i: normalize(c) for i, c in pool.items()}
            other_ids = [i for i in sorted(pool) if i != target_id]
            pool[target_id] = update_curve(
                UpdateContext(
                    target=pool[target_id],
                    others=[pool[i] for i in other_ids],
                    warps=[matrix.warp(target_id, i) for i in other_ids],
                    sims=[matrix.rho(target_id, i) for i in other_ids],
                    tau=1.0,
                    lambda0=0.5,
                )
            )
        updated = update_all(curves, matrix, 0.5, 1.0)
        moved = [c for c in curves if not np.allclose(normalize(c).samples, pool[c.id].samples)]
        assert len(moved) >= 3
        for c in updated:
            assert c.samples.tobytes() == pool[c.id].samples.tobytes()
