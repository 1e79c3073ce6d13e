import math

import numpy as np
import pytest

from curveclust.curves import refit_on_grid
from curveclust.errors import InvalidInputError
from curveclust.similarity import similarity
from curveclust.simulation import (
    SHAPE_NOISE_SCALE,
    Scenario,
    generate,
    sang_random_shape,
    scenario_preset,
    shape_f1,
    shape_f3,
)
from curveclust.splines import Grid


class TestGenerate:
    def test_zero_noise_exact_values(self):
        sc = Scenario(shapes=("f1",), warp="power", alphas=(1.0,), sizes=(1,), sigma=0.0,
                      n_points=101, seed=0)
        data = generate(sc)
        t = data.points
        np.testing.assert_allclose(data.samples[0], np.sin(2.5 * np.pi * t), atol=1e-15)
        # f1 at t = 0.2 under the identity warp is sin(pi/2) = 1
        idx = np.flatnonzero(np.isclose(t, 0.2))[0]
        assert data.samples[0][idx] == pytest.approx(1.0, abs=1e-6)

    def test_zero_noise_warped_values(self):
        sc = scenario_preset("s31", sizes=(2, 2, 2), sigma=0.0)
        data = generate(sc)
        t = data.points
        # first curve of group 3 uses the first power warp alpha = 0.86
        row = data.samples[4]
        np.testing.assert_allclose(row, shape_f3(t**0.86), atol=1e-12)

    def test_seed_determinism(self):
        sc = scenario_preset("s31", seed=123)
        one, two = generate(sc), generate(sc)
        np.testing.assert_array_equal(one.samples, two.samples)

    def test_labels_and_truths(self):
        sc = scenario_preset("s31", sizes=(3, 2, 4))
        data = generate(sc)
        assert [data.labels[i] for i in data.ids] == [1] * 3 + [2] * 2 + [3] * 4
        assert data.truths["natural"] == (
            frozenset({0, 1, 2}),
            frozenset({3, 4}),
            frozenset({5, 6, 7, 8}),
        )
        assert data.truths["merged"] == (
            frozenset({0, 1, 2, 5, 6, 7, 8}),
            frozenset({3, 4}),
        )

    def test_noise_standard_deviation(self):
        sc = Scenario(shapes=("f1",), warp="none", sizes=(100,), sigma=0.3,
                      n_points=100, seed=5)
        data = generate(sc)
        noise = data.samples - np.sin(2.5 * np.pi * data.points)
        assert np.std(noise) == pytest.approx(0.3, rel=0.05)

    def test_boundary_violating_warps(self):
        data = generate(scenario_preset("s32b", sizes=(5, 5, 5), sigma=0.0, seed=9))
        assert np.all(np.isfinite(data.samples))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidInputError):
            scenario_preset("nope")
        with pytest.raises(InvalidInputError):
            Scenario(shapes=("f9",), sizes=(3,))

    # no exponents would divide by zero when a curve picks its warp; NaN and
    # negative ones would write NaN or inf samples, and 0 a constant warp
    @pytest.mark.parametrize("alphas", [(), (math.nan,), (math.inf,), (-1.0,), (0.0,)])
    def test_bad_alphas_rejected(self, alphas):
        with pytest.raises(InvalidInputError, match="alphas"):
            Scenario(shapes=("f1",), sizes=(3,), alphas=alphas)

    # a float count would pass the bounds and fail later, in generate
    @pytest.mark.parametrize(
        "fields",
        [dict(n_points=100.0), dict(sizes=(2.5, 2, 2)), dict(seed=1.5)],
        ids=["n_points", "sizes", "seed"],
    )
    def test_counts_are_integers(self, fields):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            Scenario(**{"shapes": ("f1", "f2", "f3"), "sizes": (2, 2, 2), **fields})


class TestSangRandomShapes:
    def test_shape4_at_quarter(self):
        shape = sang_random_shape(4, (0, 0, 0, 0))
        expected = 1.0 + math.sin(math.pi / 8)
        assert shape(0.25) == pytest.approx(expected, abs=1e-12)

    def test_shape5_at_zero(self):
        shape = sang_random_shape(5, (0, 0, 0, 0))
        assert shape(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_shape6_formula_spot_checks(self):
        shape = sang_random_shape(6, (0, 0, 0, 0))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            arg = -1.0 / 3.0 + 0.75 * 2 * math.pi * t
            expected = math.sin(arg) + math.sin(arg**2 / (2 * math.pi))
            assert shape(t) == pytest.approx(expected, abs=1e-12)

    def test_draws_shared_across_groups(self):
        data = generate(scenario_preset("s33a", sizes=(3, 3, 3), seed=4))
        # same replication index in different groups shares its draws: the
        # first curve of each group must differ only through the shape formula
        sc = scenario_preset("s33a", sizes=(3, 3, 3), seed=4)
        eps = np.random.default_rng([sc.seed, 3, 0]).normal(0.0, SHAPE_NOISE_SCALE, 4)
        for g, which in enumerate((4, 5, 6)):
            expected = sang_random_shape(which, eps)(data.points)
            np.testing.assert_allclose(data.samples[3 * g], expected, atol=1e-12)


class TestShapeIdentities:
    def test_same_shape_after_warping(self):
        # the third shape is the first composed with t^2.5, so noiseless
        # curves from the two groups are near-perfectly similar at zero penalty
        grid = Grid(300)
        f = refit_on_grid(0, grid, shape_f1(grid.points))
        g = refit_on_grid(1, grid, shape_f3(grid.points))
        assert similarity(f, g, 0.0).rho >= 0.99
