import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import curveclust
from curveclust import warping
from curveclust.combining import assign_groups, candidate_partition, combine_group
from curveclust.curves import refit_on_grid
from curveclust.errors import InvalidParameterError, MonotonicityError
from curveclust.indices import distances_from_similarity, silhouette
from curveclust.products import ZERO_NORM_TOL
from curveclust.similarity import SimilarityMatrix, rho_given_psi, similarity
from curveclust.splines import (
    SplineRep,
    derivative,
    evaluate,
    uniform_interior_knots,
)
from curveclust.updating import update_all, weight_exponent
from curveclust.warping import (
    identity_warping,
    invert_warping,
    make_warping,
    n_raw_params,
    optimize_warping,
    power_warp_raw,
    rho_parts,
    roughness_penalty,
)

from .conftest import random_smooth_curve, sine_shape

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
        dvals = evaluate(derivative(warp.forward), CHECK)
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
        inv = invert_warping(identity_warping().forward)
        assert np.abs(evaluate(inv, CHECK) - CHECK).max() <= 1e-6

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
        knots = uniform_interior_knots(3)
        wiggly = SplineRep(2, knots, np.array([0.0, 0.6, 0.3, 0.5, 0.9, 1.0]))
        with pytest.raises(MonotonicityError):
            invert_warping(wiggly)


class TestRoughnessPenalty:
    def test_identity_penalty_zero(self, grid500):
        assert roughness_penalty(identity_warping(), grid500) == 0.0

    def test_power_two_and_half_closed_form(self, grid500):
        # integral of (2.5 t^1.5 - 1)^2 dt = 2.5^2/4 - 1 = 0.5625
        warp = make_warping(power_warp_raw(2.5))
        assert roughness_penalty(warp, grid500) == pytest.approx(0.5625, rel=0.05)

    def test_square_closed_form(self, grid500):
        # integral of (2t - 1)^2 dt = 1/3
        warp = make_warping(power_warp_raw(2.0))
        assert roughness_penalty(warp, grid500) == pytest.approx(1.0 / 3.0, rel=0.05)


class TestOptimizeWarping:
    def test_self_match(self, grid200):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points))
        for lambda0 in (0.0, 0.5):
            warp, parts = optimize_warping(f, f, lambda0)
            assert parts.rho == pytest.approx(1.0, abs=1e-4)

    def test_warp_recovery(self, grid500):
        f = refit_on_grid(0, grid500, sine_shape(grid500.points**1.2))
        g = refit_on_grid(1, grid500, sine_shape(grid500.points))
        warp, parts = optimize_warping(f, g, 0.0)
        assert parts.rho >= 0.99
        assert np.abs(warp.forward(CHECK) - CHECK**1.2).max() <= 0.02

    def test_large_penalty_forces_identity(self, grid200):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points**1.3))
        g = refit_on_grid(1, grid200, sine_shape(grid200.points))
        warp, parts = optimize_warping(f, g, 1e3)
        assert np.abs(warp.forward(CHECK) - CHECK).max() <= 0.01

    def test_never_below_identity_alignment(self, grid200):
        rng = np.random.default_rng(4)
        f = refit_on_grid(0, grid200, sine_shape(grid200.points) + rng.normal(0, 0.3, 200))
        g = refit_on_grid(1, grid200, np.cos(2 * np.pi * grid200.points**2))
        for lambda0 in (0.0, 0.5, 2.0):
            _, parts = optimize_warping(f, g, lambda0)
            identity_value = rho_parts(f, g, identity_warping(), lambda0).rho
            assert parts.rho >= identity_value - 1e-9

    def test_returned_value_matches_fixed_warp_evaluation(self, grid200):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points**0.8))
        g = refit_on_grid(1, grid200, sine_shape(grid200.points))
        warp, parts = optimize_warping(f, g, 0.25)
        again = rho_parts(f, g, warp, 0.25)
        assert abs(again.rho - parts.rho) <= 1e-10

    def test_fewer_evaluations_with_small_budget_still_valid(self, grid200, monkeypatch):
        f = refit_on_grid(0, grid200, sine_shape(grid200.points**1.1))
        g = refit_on_grid(1, grid200, sine_shape(grid200.points))
        monkeypatch.setattr(warping, "_BUDGET_PER_START", 50)
        _, parts = optimize_warping(f, g, 0.0)
        assert parts.rho >= rho_parts(f, g, identity_warping(), 0.0).rho - 1e-9


def _reference_coefficients_from_raw(raw, greville_steps):
    """The raw-to-coefficient map as first written (reference, verbatim)."""
    increments = np.exp(raw - raw.max()) * greville_steps
    coef = np.empty(len(raw) + 1)
    coef[0] = 0.0
    np.cumsum(increments, out=coef[1:])
    coef[1:] /= coef[-1]
    return coef


def _reference_proxy_objective(f, g, lambda0, ws):
    """The proxy objective as first written, one numpy call per step.

    Kept verbatim as the reference the lean objective must reproduce bit for
    bit.
    """
    w = f.grid.weights
    fs = f.samples
    f_centered = fs - w @ fs
    f_norm = np.sqrt(w @ (f_centered * f_centered))
    g_bspline = g.spline
    basis, deriv, steps = ws.basis, ws.deriv, ws.greville_steps

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


class TestProxyObjectiveIdentity:
    """The lean proxy objective returns the reference's float, bit for bit."""

    @pytest.mark.parametrize("grid_fixture, lambda0", [("grid100", 0.5), ("grid500", 0.0)])
    def test_bit_identical_on_random_raws(self, grid_fixture, lambda0, request):
        grid = request.getfixturevalue(grid_fixture)
        rng = np.random.default_rng(20)
        f = random_smooth_curve(0, grid, rng)
        g = random_smooth_curve(1, grid, rng)
        ws = warping._workspace(grid, warping.DEFAULT_SPLINES)
        lean = warping._proxy_objective(f, g, lambda0, ws)
        reference = _reference_proxy_objective(f, g, lambda0, ws)

        raws = rng.normal(0.0, 1.0, (2400, ws.n_raw)) * rng.uniform(0.01, 3.0, (2400, 1))
        # an end entry far below the rest makes dpsi vanish at 0 or 1 and hits
        # the 2.0 guard; interior and upward outliers may or may not
        raws[:100][np.arange(100), rng.choice([0, ws.n_raw - 1], 100)] = -40.0
        raws[100:150][np.arange(50), rng.integers(0, ws.n_raw, 50)] = -40.0
        raws[150:160][np.arange(10), rng.integers(0, ws.n_raw, 10)] = 40.0
        raws[160] = np.nan

        lean_values = [lean(raw) for raw in raws]
        ref_values = [reference(raw) for raw in raws]
        assert lean_values == ref_values
        steps = ws.greville_steps
        for raw in raws:
            assert (
                warping._coefficients_from_raw(raw, steps).tobytes()
                == _reference_coefficients_from_raw(raw, steps).tobytes()
            )
        assert sum(v == 2.0 for v in ref_values) >= 100
        assert sum(v != 2.0 for v in ref_values) >= 2000

    def test_optimize_warping_identical_to_reference(self, grid100, grid500, monkeypatch):
        rng = np.random.default_rng(21)
        cases = [(grid100, 0.5), (grid100, 0.0), (grid500, 0.0)]
        pairs = [
            (random_smooth_curve(0, grid, rng), random_smooth_curve(1, grid, rng), lambda0)
            for grid, lambda0 in cases
        ]
        lean = [optimize_warping(f, g, lambda0) for f, g, lambda0 in pairs]
        monkeypatch.setattr(warping, "_proxy_objective", _reference_proxy_objective)
        reference = [optimize_warping(f, g, lambda0) for f, g, lambda0 in pairs]
        for (warp, parts), (ref_warp, ref_parts) in zip(lean, reference):
            assert warp.forward.coefficients.tobytes() == ref_warp.forward.coefficients.tobytes()
            assert parts.rho == ref_parts.rho


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


def _search_that(caller_raises=False, helper_dies=False):
    """The start search, except that it raises in this process (where a
    helper then hangs until it is killed) or exits at once in a helper."""
    caller, search = os.getpid(), warping._budgeted_nelder_mead

    def patched(objective, x0):
        if os.getpid() == caller:
            if caller_raises:
                raise RuntimeError("caller's start failed")
        elif caller_raises:
            time.sleep(600)
        elif helper_dies:
            os._exit(1)
        return search(objective, x0)

    return patched


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _entry_bytes(entry):
    return (
        entry.rho,
        entry.warp.forward.coefficients.tobytes(),
        entry.warp.inverse.coefficients.tobytes(),
    )


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
        f, g, lambda0 = pairs[0]
        ws = warping._workspace(f.grid, warping.DEFAULT_SPLINES)
        starts, _ = warping._start_points(warping.DEFAULT_SPLINES)
        objective = warping._proxy_objective(f, g, lambda0, ws)
        serial = [warping._budgeted_nelder_mead(objective, raw).tobytes() for raw in starts]
        assert len(set(serial)) == len(starts)
        for count in (1, 2, 4):
            spare_cpus(count)
            finals = warping._final_points(f, g, lambda0, ws, starts)
            assert [x.tobytes() for x in finals] == serial

    def test_start_warps_are_shared_and_read_only(self):
        starts, warps = warping._start_points(warping.DEFAULT_SPLINES)
        again = warping._start_points(warping.DEFAULT_SPLINES)
        assert again[1] is warps and len(starts) == len(warps) == 5
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
        monkeypatch.setattr(warping, "_budgeted_nelder_mead", _search_that(caller_raises=True))
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
        monkeypatch.setattr(warping, "_budgeted_nelder_mead", _search_that(helper_dies=True))
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
            _assert_no_child()
            monkeypatch.setattr(warping, "_budgeted_nelder_mead", fails)
            with pytest.raises(RuntimeError):
                similarity(f, g, lambda0)
            _assert_no_child()
            monkeypatch.setattr(warping, "_budgeted_nelder_mead", dies)
            similarity(f, g, lambda0)
            _assert_no_child()
            monkeypatch.undo()
            spare_cpus(2)
            monkeypatch.setattr(os, "fork", second_fork_fails)
            with pytest.raises(OSError):
                similarity(f, g, lambda0)
            assert len(forked) == 1
            _assert_no_child()

    def test_helpers_exit_with_a_killed_caller(self):
        read_end, write_end = os.pipe()
        # each helper writes one byte to the inherited pipe; the caller's own
        # first start SIGKILLs the caller
        script = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from curveclust import warping\n"
            "from curveclust.curves import refit_on_grid\n"
            "from curveclust.splines import uniform_grid\n"
            "fd, caller = int(sys.argv[1]), os.getpid()\n"
            "fork, search = os.fork, warping._budgeted_nelder_mead\n"
            "def helper_fork():\n"
            "    pid = fork()\n"
            "    if pid == 0:\n"
            "        os.write(fd, b'h')\n"
            "    return pid\n"
            "def killed(objective, x0):\n"
            "    if os.getpid() == caller:\n"
            "        os.kill(caller, signal.SIGKILL)\n"
            "    return search(objective, x0)\n"
            "os.fork, warping._budgeted_nelder_mead = helper_fork, killed\n"
            "warping._spare_cpus = lambda: 2\n"
            "grid = uniform_grid(100)\n"
            "f = refit_on_grid(0, grid, np.sin(2 * np.pi * grid.points))\n"
            "g = refit_on_grid(1, grid, np.sin(2 * np.pi * grid.points ** 1.2))\n"
            "warping.optimize_warping(f, g, 0.0)\n"
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
        identity = identity_warping()
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
