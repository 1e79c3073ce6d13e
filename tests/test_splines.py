import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import BSpline

import curveclust
from curveclust.errors import InvalidInputError, SingularFitError
from curveclust.splines import (
    SHAPE,
    Grid,
    Layout,
    SplineRep,
    check_time_points,
    derivative,
    fit_least_squares,
    spline_evaluator,
)
from curveclust.warping import INVERSE, WARP, make_warping, n_raw_params


class TestLayout:
    def test_knots_sizes_and_lower(self):
        layout = Layout(3, 3)
        np.testing.assert_array_equal(
            layout.knots, [0, 0, 0, 0, 0.25, 0.5, 0.75, 1, 1, 1, 1]
        )
        assert layout.size == 7
        assert layout.lower.degree == 2 and layout.lower.size == 6
        assert layout.lower is layout.lower
        np.testing.assert_array_equal(layout.lower.interior, layout.interior)
        assert not layout.interior.flags.writeable and not layout.knots.flags.writeable
        assert SHAPE.size == 20 and WARP.size == 6 and INVERSE.size == 26

    def test_compared_by_identity(self):
        twin = Layout(2, 3)
        assert twin is not WARP and twin != WARP
        np.testing.assert_array_equal(twin.interior, WARP.interior)

    @pytest.mark.parametrize("degree, count", [(3, 16), (2, 3), (2, 23)])
    def test_spaces_keep_their_knot_bytes(self, degree, count):
        # the bytes every result was recorded with: equally spaced knots by
        # linspace, which np.arange(1, n + 1) / (n + 1) does not reproduce
        layout = Layout(degree, count)
        for space in (layout, layout.lower):
            d = space.degree
            want = np.concatenate(
                [np.zeros(d + 1), np.linspace(0.0, 1.0, count + 2)[1:-1], np.ones(d + 1)]
            )
            assert space.knots.tobytes() == want.tobytes()

    def test_negative_knot_count_rejected(self):
        with pytest.raises(InvalidInputError):
            Layout(3, -1)

    def test_fractional_knot_count_rejected(self):
        with pytest.raises(InvalidInputError):
            Layout(3, 1.5)


class TestBasisMatrix:
    def test_linear_hat_functions(self):
        rows = Layout(1, 0).basis(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(rows, [[1, 0], [0.5, 0.5], [0, 1]], atol=1e-15)

    def test_column_count_formula(self):
        layout = Layout(3, 1)
        rows = layout.basis(np.linspace(0, 1, 101))
        assert rows.shape[1] == 5 == layout.size

    @given(
        degree=st.integers(1, 4),
        count=st.integers(0, 12),
        n_points=st.integers(4, 60),
        seed=st.integers(0, 10_000),
    )
    def test_partition_of_unity(self, degree, count, n_points, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 1, n_points))
        rows = Layout(degree, count).basis(x)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert rows.min() >= -1e-14 and rows.max() <= 1 + 1e-14


class TestFitLeastSquares:
    def test_projection_idempotence(self):
        layout = Layout(3, 5)
        rng = np.random.default_rng(0)
        original = SplineRep(layout, rng.normal(size=layout.size))
        x = np.linspace(0, 1, 60)
        fit = fit_least_squares(x, original(x), np.ones_like(x), layout)
        np.testing.assert_allclose(fit.coefficients, original.coefficients, atol=1e-8)

    def test_reproduces_lower_degree_polynomial(self):
        x = np.linspace(0, 1, 50)
        fit = fit_least_squares(x, 2 * x + 1, np.ones_like(x), Layout(3, 3))
        np.testing.assert_allclose(fit(x), 2 * x + 1, atol=1e-8)

    def test_weights_equal_replication(self):
        # weight 2 on one replicate equals duplicating its rows (normal equations)
        x = np.linspace(0, 1, 40)
        rng = np.random.default_rng(1)
        y1 = np.sin(2 * np.pi * x) + rng.normal(0, 0.2, len(x))
        y2 = np.sin(2 * np.pi * x) + rng.normal(0, 0.2, len(x))
        layout = Layout(3, 4)
        weighted = fit_least_squares(
            np.r_[x, x], np.r_[y1, y2], np.r_[2 * np.ones_like(x), np.ones_like(x)], layout
        )
        duplicated = fit_least_squares(
            np.r_[x, x, x], np.r_[y1, y1, y2], np.ones(3 * len(x)), layout
        )
        np.testing.assert_allclose(weighted.coefficients, duplicated.coefficients, atol=1e-9)

    def test_equal_weights_match_unweighted_scaling(self):
        x = np.linspace(0, 1, 30)
        y = np.cos(np.pi * x)
        layout = Layout(3, 2)
        a = fit_least_squares(x, y, np.ones_like(x), layout)
        b = fit_least_squares(x, y, 7.5 * np.ones_like(x), layout)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)

    def test_rank_deficient_design_raises(self):
        # all samples inside one knot span leave most basis columns zero
        x = np.linspace(0.4, 0.45, 30)
        with pytest.raises(SingularFitError):
            fit_least_squares(x, np.sin(x), np.ones_like(x), SHAPE)

    def test_too_few_samples_rejected(self):
        x = np.linspace(0, 1, 5)
        with pytest.raises(InvalidInputError):
            fit_least_squares(x, x, np.ones_like(x), SHAPE)

    def test_residual_orthogonality(self):
        x = np.linspace(0, 1, 80)
        rng = np.random.default_rng(3)
        y = np.sin(3 * x) + rng.normal(0, 0.1, len(x))
        w = rng.uniform(0.5, 2.0, len(x))
        layout = Layout(3, 6)
        fit = fit_least_squares(x, y, w, layout)
        design = layout.basis(x)
        residual = y - fit(x)
        gram = design.T @ (w * residual)
        assert np.abs(gram).max() <= 1e-8 * max(1.0, np.abs(y).max())

    def test_grid_basis_fit_byte_equal(self):
        # the refit of every update reads one cached, read-only design per
        # grid and layout, and fits the same bytes as a fresh design
        grid = Grid(100)
        basis = SHAPE.on_grid(grid)
        assert SHAPE.on_grid(Grid(100)) is basis
        assert Layout(3, 16).on_grid(grid) is not basis
        assert not basis.flags.writeable
        np.testing.assert_array_equal(basis, SHAPE.basis(grid.points))
        y = np.sin(5 * grid.points) + grid.points**2
        w = np.ones_like(y)
        fresh = fit_least_squares(grid.points, y, w, SHAPE)
        cached = fit_least_squares(grid.points, y, w, SHAPE, design=basis)
        assert cached.coefficients.tobytes() == fresh.coefficients.tobytes()

    @pytest.mark.parametrize("n_points", [100, 500])
    def test_grid_derivative_basis_shared_and_read_only(self, n_points):
        # the warp search and forward_on_grid read psi' through this design
        grid = Grid(n_points)
        rng = np.random.default_rng(34)
        for layout in (WARP, INVERSE):
            deriv = layout.derivative_on_grid(grid)
            assert layout.derivative_on_grid(Grid(n_points)) is deriv
            assert deriv is not layout.on_grid(grid)
            assert deriv is not layout.lower.on_grid(grid)
            assert not deriv.flags.writeable
            # splder's expression on the identity's columns
            t, k, eye = layout.knots, layout.degree, np.eye(layout.size)
            span = (t[k + 1 : -1] - t[1 : -k - 1])[:, None]
            fresh = layout.lower.basis(grid.points) @ ((eye[1:] - eye[:-1]) * k / span)
            assert deriv.tobytes() == fresh.tobytes()
            spline = SplineRep(layout, np.cumsum(rng.uniform(0.1, 1.0, layout.size)))
            np.testing.assert_allclose(
                deriv @ spline.coefficients, derivative(spline)(grid.points), rtol=1e-12
            )


class TestEvaluate:
    def test_constant_spline(self):
        layout = Layout(3, 4)
        spline = SplineRep(layout, np.full(layout.size, 3.25))
        np.testing.assert_allclose(spline(np.linspace(0, 1, 20)), 3.25, atol=1e-14)

    def test_evaluate_then_refit_round_trip(self):
        layout = Layout(3, 7)
        rng = np.random.default_rng(5)
        spline = SplineRep(layout, rng.normal(size=layout.size))
        x = np.linspace(0, 1, 90)
        refit = fit_least_squares(x, spline(x), np.ones_like(x), layout)
        np.testing.assert_allclose(refit.coefficients, spline.coefficients, atol=1e-8)

    def test_dense_grid_error_against_sine(self):
        x = np.linspace(0, 1, 500)
        target = np.sin(2.5 * np.pi * x)
        fit = fit_least_squares(x, target, np.ones_like(x), SHAPE)
        assert np.abs(fit(x) - target).max() <= 1e-3


class TestUncheckedConstruction:
    """`SplineRep` builds its scipy spline without the validating constructor;
    values and derivatives must not change by a bit."""

    @pytest.mark.parametrize("degree, count", [(1, 0), (2, 3), (2, 23), (3, 16)])
    def test_values_and_derivatives_byte_equal(self, degree, count):
        rng = np.random.default_rng(degree * 100 + count)
        layout = Layout(degree, count)
        x = np.linspace(0.0, 1.0, 2001)
        for _ in range(5):
            spline = SplineRep(layout, rng.normal(size=layout.size))
            checked = BSpline(layout.knots, spline.coefficients, degree, extrapolate=False)
            assert spline(x).tobytes() == checked(x).tobytes()
            if degree > 1:  # a degree-1 spline has no derivative space
                der = derivative(spline)
                assert der(x).tobytes() == checked.derivative(1)(x).tobytes()


class TestSplineEvaluator:
    """The compiled evaluator gives `BSpline.__call__`'s bytes and shape."""

    @staticmethod
    def _splines():
        rng = np.random.default_rng(31)
        x = np.linspace(0.0, 1.0, 80)
        shape = fit_least_squares(
            x, np.sin(5 * x) + rng.normal(0, 0.1, x.size), np.ones_like(x), SHAPE
        )
        warp = make_warping(rng.normal(0.0, 0.5, n_raw_params()))
        return [shape, warp.forward, warp.inverse, derivative(warp.forward)]

    @pytest.mark.parametrize("compiled", [True], ids=["compiled"])
    def test_byte_equal_to_bspline_call(self, compiled):
        rng = np.random.default_rng(32)
        points = [
            np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 98)]),  # 1-D
            np.array([[0.0, 0.25, 1.0], [1.0, 0.5, 0.0]]),  # 2-D
            rng.uniform(0.0, 1.0, (7, 4)),
            np.float64(1.0),  # 0-d
        ]
        for spline in self._splines():
            values = spline_evaluator(spline)
            layout = spline.layout
            bspline = BSpline(layout.knots, spline.coefficients, layout.degree, extrapolate=False)
            for x in points:
                want = bspline(x)
                got = values(x)
                assert got.shape == want.shape == np.shape(x)
                assert got.tobytes() == want.tobytes()
                assert spline(x).tobytes() == want.tobytes()
            ends = values(np.array([0.0, 1.0]))
            assert ends[0] == spline.coefficients[0] and ends[1] == spline.coefficients[-1]


class TestCompiledPaths:
    """`Layout.basis` and `derivative` skip scipy's sparse matrix and
    derivative BSpline but keep their bytes."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(33)
        for degree in (1, 2, 3):
            for layout in (
                Layout(degree, 0),
                Layout(degree, 3),
                Layout(degree, 9),
                Layout(degree, 23),
            ):
                # the ends, every knot, and points between them
                x = np.concatenate([[0.0, 1.0], layout.interior, rng.uniform(0.0, 1.0, 40)])
                yield layout, x, rng.normal(size=layout.size)

    @pytest.mark.parametrize("compiled", [True], ids=["compiled"])
    def test_basis_matrix_byte_equal_to_design_matrix(self, compiled):
        for layout, x, _ in self._cases():
            d = layout.degree
            t = np.concatenate([np.zeros(d + 1), layout.interior, np.ones(d + 1)])
            want = BSpline.design_matrix(x, t, d).toarray()
            assert layout.basis(x).tobytes() == want.tobytes()

    def test_derivative_byte_equal_to_bspline_derivative(self):
        for layout, _, coef in self._cases():
            if layout.degree == 1:  # no degree-0 space to differentiate into
                continue
            spline = SplineRep(layout, coef)
            want = BSpline(layout.knots, coef, layout.degree).derivative(1).c[: layout.lower.size]
            der = derivative(spline)
            assert der.layout is layout.lower
            assert der.coefficients.tobytes() == want.tobytes()


class TestImportFootprint:
    """`import curveclust` loads scipy's compiled spline module alone, not
    the `scipy.interpolate` package around it."""

    @staticmethod
    def _run(script, *path):
        src = str(Path(curveclust.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([*path, src])}
        return subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )

    def test_only_the_compiled_module_of_scipy_is_loaded(self):
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import curveclust\n"
            "print(scipy_modules())\n"
            "from curveclust.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(scipy_modules())\n"
        )
        run = self._run(script)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.strip().splitlines()
        assert lines[0] == lines[-1] == "['scipy.interpolate._dierckx']"

    @pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "curveclust-first"])
    def test_either_import_order_keeps_bspline_bytes(self, scipy_first):
        imports = ["import scipy.interpolate", "from curveclust import splines"]
        script = "\n".join(
            (imports if scipy_first else imports[::-1])
            + [
                "import sys",
                "import numpy as np",
                "from scipy.interpolate import BSpline",
                "assert splines._compiled is sys.modules['scipy.interpolate._dierckx']",
                "rng = np.random.default_rng(34)",
                "layout = splines.SHAPE",
                "x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200)])",
                "spline = splines.SplineRep(layout, rng.normal(size=20))",
                "want = BSpline(layout.knots, spline.coefficients, 3, extrapolate=False)(x)",
                "assert spline(x).tobytes() == want.tobytes()",
                "want = BSpline.design_matrix(x, layout.knots, 3).toarray()",
                "assert layout.basis(x).tobytes() == want.tobytes()",
            ]
        )
        run = self._run(script)
        assert run.returncode == 0, run.stderr

    def test_a_scipy_without_the_compiled_module_is_named(self, tmp_path):
        (tmp_path / "scipy" / "interpolate").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        (tmp_path / "scipy" / "interpolate" / "__init__.py").write_text("")
        run = self._run("import curveclust", str(tmp_path))
        assert run.returncode != 0
        last = run.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError:")
        assert "scipy.interpolate._dierckx" in last and "scipy >= 1.15" in last


class TestDerivative:
    def test_linear_spline_derivative_constant(self):
        x = np.linspace(0, 1, 40)
        fit = fit_least_squares(x, 2 * x + 1, np.ones_like(x), Layout(3, 3))
        der = derivative(fit)
        assert der.layout.degree == 2
        np.testing.assert_allclose(der(x), 2.0, atol=1e-8)

    def test_matches_central_differences(self):
        layout = Layout(3, 8)
        rng = np.random.default_rng(9)
        spline = SplineRep(layout, rng.normal(size=layout.size))
        x = np.linspace(0.01, 0.99, 200)
        h = 1e-5
        fd = (spline(x + h) - spline(x - h)) / (2 * h)
        np.testing.assert_allclose(derivative(spline)(x), fd, atol=1e-4)

    def test_constant_spline_derivative_zero(self):
        layout = Layout(3, 4)
        spline = SplineRep(layout, np.full(layout.size, 1.7))
        np.testing.assert_allclose(
            derivative(spline)(np.linspace(0, 1, 30)), 0.0, atol=1e-12
        )

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            Layout(0, 2)
        # so a degree-1 spline, whose derivative would be degree 0, has none
        spline = SplineRep(Layout(1, 1), np.array([1.0, 2.0, 0.5]))
        with pytest.raises(InvalidInputError):
            derivative(spline)


class TestGrid:
    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            check_time_points([0.0, 0.5, 1.0])  # too short
        with pytest.raises(InvalidInputError):
            check_time_points([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(InvalidInputError):
            check_time_points([0.1, 0.4, 0.7, 1.0])

    @pytest.mark.parametrize("where", [0, 2, -1])
    def test_nan_time_point_rejected(self, where):
        points = np.linspace(0.0, 1.0, 6)
        points[where] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            check_time_points(points)

    @pytest.mark.parametrize("n", [3, 100.0, float("nan"), "100"])
    def test_grid_size_is_an_integer_of_at_least_4(self, n):
        with pytest.raises(InvalidInputError, match="number of grid points"):
            Grid(n)

    def test_grids_of_one_size_are_one_grid(self):
        assert Grid(100) == Grid(100) and hash(Grid(100)) == hash(Grid(100))
        assert Grid(99) != Grid(100)
        assert len(Grid(100)) == 100

    def test_points_and_weights_are_read_only(self):
        grid = Grid(50)
        for values in (grid.points, grid.weights):
            with pytest.raises(ValueError):
                values[1] = 0.5

    @pytest.mark.parametrize("n", [50, 100, 500])
    def test_grid_keeps_its_bytes(self, n):
        points = np.linspace(0.0, 1.0, n)
        # the trapezoid weights as the package first computed them
        weights = np.zeros_like(points)
        weights[:-1] += np.diff(points) / 2.0
        weights[1:] += np.diff(points) / 2.0
        grid = Grid(n)
        assert grid.points.tobytes() == points.tobytes()
        assert grid.weights.tobytes() == weights.tobytes()

    def test_weights_sum_to_one(self):
        grid = Grid(137)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-12)
