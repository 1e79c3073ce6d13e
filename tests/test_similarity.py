import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curveclust.curves import refit_on_grid
from curveclust import splines, warping
from curveclust.errors import InvalidInputError, InvalidParameterError, ZeroVarianceError
from curveclust.products import center_inner, corr
from curveclust.similarity import (
    PairCache,
    SimilarityEntry,
    SimilarityMatrix,
    rho_given_psi,
    similarity,
    similarity_matrix,
)
from curveclust.splines import make_grid, uniform_grid
from curveclust.warping import (
    make_warping,
    n_raw_params,
    power_warp_raw,
)

from .conftest import bump_shape, identity_warp, random_smooth_curve, sine_shape

GRID = uniform_grid(500)
W = GRID.weights
T = GRID.points


class TestCenterInner:
    def test_constant_curve_gives_zero(self):
        f = np.full(len(T), 4.2)
        g = np.sin(T)
        assert center_inner(f, g, W) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_variance(self):
        # <t, t> over [0,1] equals Var of Uniform(0,1) = 1/12
        assert center_inner(T, T, W) == pytest.approx(1.0 / 12.0, abs=1e-4)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        f, g = rng.normal(size=len(T)), rng.normal(size=len(T))
        assert center_inner(f, g, W) == center_inner(g, f, W)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 1000))
    def test_bilinearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        f, h, g = (rng.normal(size=len(T)) for _ in range(3))
        left = center_inner(a * f + b * h, g, W)
        right = a * center_inner(f, g, W) + b * center_inner(h, g, W)
        assert left == pytest.approx(right, abs=1e-10)


class TestCorr:
    def test_self_correlation_one(self):
        f = np.sin(2 * np.pi * T)
        assert corr(f, f, W) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.1, 5), st.floats(-2, 2))
    def test_affine_invariance(self, a, b):
        f = np.sin(2 * np.pi * T)
        assert corr(f, a * f + b, W) == pytest.approx(1.0, abs=1e-9)
        assert corr(f, -a * f + b, W) == pytest.approx(-1.0, abs=1e-9)

    def test_exact_anticorrelation(self):
        assert corr(T, 1.0 - T, W) == pytest.approx(-1.0, abs=1e-8)

    def test_constant_curve_rejected(self):
        with pytest.raises(ZeroVarianceError):
            corr(np.ones(len(T)), np.sin(T), W)


class TestRhoGivenPsi:
    def test_identity_self_similarity(self):
        f = refit_on_grid(0, GRID, sine_shape(T))
        for lambda0 in (0.0, 0.5, 3.0):
            entry = rho_given_psi(f, f, identity_warp(), lambda0)
            assert entry.rho == pytest.approx(1.0, abs=1e-12)
            assert entry.penalty_fwd == 0.0

    def test_power_composition_alignment(self):
        # sin(2.5 pi t^2.5) is sin(2.5 pi t) composed with t^2.5
        f = refit_on_grid(0, GRID, sine_shape(np.clip(T**2.5, 0, 1)))
        g = refit_on_grid(1, GRID, sine_shape(T))
        warp = make_warping(power_warp_raw(2.5))
        entry = rho_given_psi(f, g, warp, 0.0)
        assert entry.rho >= 0.99

    def test_penalty_reduces_rho_linearly(self):
        f = refit_on_grid(0, GRID, sine_shape(np.clip(T**2.5, 0, 1)))
        g = refit_on_grid(1, GRID, sine_shape(T))
        warp = make_warping(power_warp_raw(2.5))
        free = rho_given_psi(f, g, warp, 0.0)
        taxed = rho_given_psi(f, g, warp, 0.5)
        assert free.penalty_fwd > 0
        assert taxed.rho <= free.rho - 0.5 * 0.5 * free.penalty_fwd

    def test_out_of_range_warp_rejected(self):
        from curveclust.errors import WarpRangeError
        from curveclust.splines import SplineRep
        from curveclust.warping import WARP, Warping

        f = refit_on_grid(0, GRID, sine_shape(T))
        escaping = SplineRep(WARP, np.array([0.0, 0.3, 1.4, 0.9, 0.95, 1.0]))
        with pytest.raises(WarpRangeError):
            rho_given_psi(f, f, Warping(escaping, escaping), 0.0)

    def test_entry_formula_invariant(self):
        f = refit_on_grid(0, GRID, sine_shape(T**1.1))
        g = refit_on_grid(1, GRID, bump_shape(T))
        entry = rho_given_psi(f, g, make_warping(power_warp_raw(0.9)), 0.3)
        recomposed = 0.5 * (
            (entry.r_fwd - 0.3 * entry.penalty_fwd) + (entry.r_inv - 0.3 * entry.penalty_inv)
        )
        assert entry.rho == pytest.approx(recomposed, abs=1e-10)


class TestSimilarity:
    def test_self_similarity(self):
        f = refit_on_grid(0, GRID, bump_shape(T))
        assert similarity(f, f, 0.7).rho == pytest.approx(1.0, abs=1e-4)

    def test_same_shape_after_power_warp(self):
        f = refit_on_grid(0, GRID, sine_shape(T))
        g = refit_on_grid(1, GRID, sine_shape(np.clip(T**2.5, 0, 1)))
        assert similarity(f, g, 0.0).rho >= 0.99

    def test_different_shapes_bounded_by_power_warp_oracle(self):
        f = refit_on_grid(0, GRID, sine_shape(T))
        g = refit_on_grid(1, GRID, bump_shape(T))
        # oracle: best symmetric correlation over a dense family of power warps
        best = -1.0
        for alpha in np.linspace(0.3, 3.0, 55):
            fwd = corr(f.samples, g.spline(np.clip(T**alpha, 0, 1)), W)
            rev = corr(g.samples, f.spline(np.clip(T ** (1 / alpha), 0, 1)), W)
            best = max(best, 0.5 * (fwd + rev))
        value = similarity(f, g, 0.0).rho
        assert best < 0.9
        assert value <= 0.9
        assert value >= best - 0.02  # optimizer should not lose to the oracle

    def test_rho_never_exceeds_one(self):
        rng = np.random.default_rng(2)
        grid = uniform_grid(200)
        a = random_smooth_curve(0, grid, rng)
        b = random_smooth_curve(1, grid, rng)
        for lambda0 in (0.0, 0.5):
            assert similarity(a, b, lambda0).rho <= 1.0

    def test_self_warp_recoverability(self):
        grid = uniform_grid(200)
        f = refit_on_grid(0, grid, sine_shape(grid.points))
        rng = np.random.default_rng(11)
        for _ in range(3):
            warp = make_warping(rng.normal(0, 0.5, n_raw_params()))
            warped = refit_on_grid(1, grid, f.spline(warp.forward(grid.points)))
            assert similarity(f, warped, 0.0).rho >= 0.99

    def test_monotone_in_lambda0(self):
        grid = uniform_grid(200)
        rng = np.random.default_rng(3)
        a = random_smooth_curve(0, grid, rng)
        b = random_smooth_curve(1, grid, rng)
        values = [similarity(a, b, lam).rho for lam in (0.0, 0.25, 0.5, 1.0)]
        assert all(x >= y - 1e-9 for x, y in zip(values, values[1:]))


class TestSimilarityMatrix:
    def test_three_curves_three_entries(self):
        grid = uniform_grid(100)
        curves = [
            refit_on_grid(0, grid, sine_shape(grid.points)),
            refit_on_grid(1, grid, sine_shape(grid.points**1.1)),
            refit_on_grid(2, grid, bump_shape(grid.points)),
        ]
        matrix = similarity_matrix(curves, 0.0)
        assert len(matrix.values()) == 3

    def test_symmetric_lookup(self):
        grid = uniform_grid(100)
        curves = [
            refit_on_grid(0, grid, sine_shape(grid.points)),
            refit_on_grid(1, grid, bump_shape(grid.points)),
        ]
        matrix = similarity_matrix(curves, 0.2)
        assert matrix.rho(0, 1) == matrix.rho(1, 0)
        assert matrix.warp(1, 0).forward is matrix.warp(0, 1).inverse
        assert matrix.warp(1, 0).inverse is matrix.warp(0, 1).forward

    @given(st.integers(0, 10_000))
    def test_lookup_symmetric_for_any_id_order(self, seed):
        rng = np.random.default_rng(seed)
        ids = [f"c{k}" for k in rng.permutation(int(rng.integers(2, 7)))]
        entries = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                warp = make_warping(rng.normal(0, 0.5, n_raw_params()))
                entries[(a, b)] = SimilarityEntry(float(rng.uniform(-1, 1)), warp, 0, 0, 0, 0)
        matrix = SimilarityMatrix(entries, ids)
        for (a, b), entry in entries.items():
            assert matrix.rho(a, b) == matrix.rho(b, a) == entry.rho
            assert matrix.warp(a, b) is entry.warp
            assert matrix.warp(b, a).forward is matrix.warp(a, b).inverse
            assert matrix.warp(b, a).inverse is matrix.warp(a, b).forward
        for a in ids:
            assert matrix.rho(a, a) == 1.0

    def test_missing_pair_rejected(self):
        entries = {(0, 1): SimilarityEntry(0.5, identity_warp(), 0, 0, 0, 0)}
        with pytest.raises(InvalidInputError):
            SimilarityMatrix(entries, [0, 1, 2])

    @pytest.mark.parametrize(
        "keys",
        [[(0, 1), (1, 0), (0, 2)], [(0, 1), (0, 0), (1, 2)], [(0, 1), (0, 3), (1, 2)]],
        ids=["pair-twice", "self-pair", "unknown-id"],
    )
    def test_keys_other_than_each_pair_once_rejected(self, keys):
        # three keys for three ids, but not the three pairs of distinct ids
        entries = {key: SimilarityEntry(0.5, identity_warp(), 0, 0, 0, 0) for key in keys}
        with pytest.raises(InvalidInputError):
            SimilarityMatrix(entries, [0, 1, 2])

    def test_recomputation_deterministic(self):
        grid = uniform_grid(100)
        curves = [
            refit_on_grid(0, grid, sine_shape(grid.points)),
            refit_on_grid(1, grid, sine_shape(grid.points**0.9)),
            refit_on_grid(2, grid, bump_shape(grid.points)),
        ]
        first = similarity_matrix(curves, 0.1)
        second = similarity_matrix(curves, 0.1)
        assert first.values() == second.values()

    def test_cache_round_trip(self):
        grid = uniform_grid(100)
        curves = [
            refit_on_grid(0, grid, sine_shape(grid.points)),
            refit_on_grid(1, grid, bump_shape(grid.points)),
        ]
        cache = PairCache()
        first = similarity_matrix(curves, 0.0, cache=cache)
        fwd = cache.get(curves[0], curves[1], 0.0)
        rev = cache.get(curves[1], curves[0], 0.0)
        assert fwd.warp is first.warp(0, 1)
        assert rev.warp.forward is fwd.warp.inverse
        assert rev.r_fwd == fwd.r_inv and rev.penalty_fwd == fwd.penalty_inv
        second = similarity_matrix(curves, 0.0, cache=cache)
        assert second.rho(0, 1) == first.rho(0, 1)
        assert second.warp(0, 1) is fwd.warp  # read from the cache, not recomputed


def _entry_bytes(entry):
    return (
        entry.rho,
        entry.warp.forward.coefficients.tobytes(),
        entry.warp.inverse.coefficients.tobytes(),
    )


class TestBadLambda0:
    @pytest.mark.parametrize("lambda0", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize(
        "entry_point", ["similarity", "similarity_matrix", "rho_given_psi"]
    )
    def test_rejected(self, entry_point, lambda0):
        grid = uniform_grid(100)
        f = refit_on_grid(0, grid, sine_shape(grid.points))
        g = refit_on_grid(1, grid, sine_shape(grid.points**1.2))
        call = {
            "similarity": lambda: similarity(f, g, lambda0),
            "similarity_matrix": lambda: similarity_matrix([f, g], lambda0),
            "rho_given_psi": lambda: rho_given_psi(f, g, identity_warp(), lambda0),
        }[entry_point]
        with pytest.raises(InvalidParameterError, match="^lambda0 must be finite and nonnegative$"):
            call()


def _empty_design_caches(monkeypatch) -> None:
    """Give every layout the package builds splines in an empty cache of grid
    designs, until the test ends."""
    for layout in (splines.SHAPE, warping.WARP, warping.INVERSE):
        for space in (layout, layout.lower):
            monkeypatch.setitem(vars(space), "_designs", {})


class TestCachesKeyedByInput:
    def test_workspace_of_another_grid_of_equal_length_is_not_used(self, monkeypatch):
        uniform = uniform_grid(100)
        stretched = make_grid(np.linspace(0.0, 1.0, 100) ** 1.5)
        f, g = (
            refit_on_grid(i, stretched, sine_shape(stretched.points**p))
            for i, p in ((0, 1.0), (1, 1.2))
        )
        _empty_design_caches(monkeypatch)
        alone = _entry_bytes(similarity(f, g, 0.5))
        _empty_design_caches(monkeypatch)
        u, v = (refit_on_grid(i, uniform, sine_shape(uniform.points)) for i in (0, 1))
        similarity(u, v, 0.5)
        assert _entry_bytes(similarity(f, g, 0.5)) == alone

    def test_pair_cache_keeps_penalties_apart(self):
        grid = uniform_grid(100)
        curves = [
            refit_on_grid(0, grid, sine_shape(grid.points)),
            refit_on_grid(1, grid, sine_shape(grid.points**1.3)),
        ]
        cache = PairCache()
        similarity_matrix(curves, 0.0, cache=cache)
        similarity_matrix(curves, 0.5, cache=cache)
        free, penalized = (cache.get(*curves, lambda0) for lambda0 in (0.0, 0.5))
        assert free is not penalized
        assert _entry_bytes(free) == _entry_bytes(similarity(*curves, 0.0))
        assert _entry_bytes(penalized) == _entry_bytes(similarity(*curves, 0.5))
        assert free.rho > penalized.rho
