import importlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveclust import pipeline
from curveclust.combining import Partition, combine_group
from curveclust.curves import refit_on_grid, smooth_curve
from curveclust.errors import DegenerateDataError, InvalidInputError
from curveclust.pipeline import (
    RunConfig,
    _Shared,
    _run_loops,
    combination_thresholds,
    prepare_curves,
    run,
)
from curveclust.io import result_json
from curveclust.simulation import Scenario, generate, scenario_preset
from curveclust.splines import SHAPE, derivative, uniform_grid
from curveclust.updating import update_all, weight_exponent
from curveclust.warping import INVERSE, WARP

from .conftest import assert_no_child, bump_shape, sine_shape

# the package re-exports the function `similarity` under the module's name
similarity = importlib.import_module("curveclust.similarity")


class TestCombinationThresholds:
    def test_offsets_from_quantile(self):
        sims = [0.8] * 10  # constant sample: quantile is 0.8
        got = combination_thresholds(sims, 0.25)
        np.testing.assert_allclose(got, [0.79, 0.79 + 0.01 / 3, 0.79 + 0.02 / 3, 0.8], atol=1e-12)

    def test_constant_similarity(self):
        got = combination_thresholds([0.6] * 6, 0.25)
        np.testing.assert_allclose(got, [0.59, 0.59 + 0.01 / 3, 0.59 + 0.02 / 3, 0.6], atol=1e-12)

    def test_values_equal_one_filtered(self):
        got = combination_thresholds([1.0, 1.0, 0.8, 0.8], 0.25)
        assert got[-1] == pytest.approx(0.8)

    def test_all_ones_degenerate(self):
        with pytest.raises(DegenerateDataError):
            combination_thresholds([1.0, 1.0], 0.25)


class TestPrepareCurves:
    def test_smooths_onto_run_grid(self):
        points = np.linspace(0, 1, 80)
        rows = [sine_shape(points), bump_shape(points)]
        curves = prepare_curves(points, rows, RunConfig(lambda0=0.0, grid_size=120))
        assert len(curves[0].samples) == 120
        np.testing.assert_allclose(curves[0].samples, sine_shape(curves[0].grid.points), atol=1e-3)

    def test_constant_curve_rejected(self):
        points = np.linspace(0, 1, 60)
        with pytest.raises(DegenerateDataError):
            prepare_curves(points, [np.ones_like(points)], RunConfig(lambda0=0.0))

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            prepare_curves(np.linspace(0.2, 1, 60), [np.linspace(0, 1, 60)], RunConfig(lambda0=0.0))

    def test_smooths_on_unsnapped_points(self):
        # ends within the 1e-9 tolerance are accepted but not moved to 0 and 1
        points = np.linspace(0, 1, 60)
        points[0], points[-1] = 4e-10, 1.0 - 5e-10
        row = np.sin(3 * points)
        curve = prepare_curves(points, [row], RunConfig(lambda0=0.0, grid_size=100))[0]
        own = smooth_curve(0, points, row, uniform_grid(100))
        snapped = smooth_curve(0, np.linspace(0, 1, 60), row, uniform_grid(100))
        np.testing.assert_array_equal(curve.samples, own.samples)
        assert not np.array_equal(curve.samples, snapped.samples)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            RunConfig(lambda0=-1.0)
        with pytest.raises(InvalidInputError):
            RunConfig(lambda0=0.0, grid_size=10)
        with pytest.raises(InvalidInputError):
            RunConfig(lambda0=0.0, max_iterations=0)
        # an unknown index is rejected before any similarity is computed
        for index in ("silhoutte", "dunn", "dunn_I1_J1", "dunn-I4-J1", "dunn-I1-j1"):
            with pytest.raises(InvalidInputError):
                RunConfig(lambda0=0.0, index=index)


class TestLayouts:
    def test_every_spline_lies_in_a_package_layout(self):
        # layouts are compared by identity: a spline outside SHAPE, WARP and
        # INVERSE would be a second record of a knot layout
        data = generate(scenario_preset("s31", sizes=(2, 2, 2), sigma=0.15, seed=1))
        config = RunConfig(lambda0=0.5, grid_size=100)
        curves = prepare_curves(data.points, data.samples, config)
        matrix = similarity.similarity_matrix(curves, config.lambda0)
        tau = weight_exponent([s for s in matrix.values() if s < 1.0])
        updated = update_all(curves, matrix, config.lambda0, tau, config.splines)
        bank = {c.id: c for c in curves}
        combined = combine_group([0, 1], bank, matrix, settings=config.splines)
        assert config.splines is SHAPE
        for curve in [*curves, *updated, combined]:
            assert curve.spline.layout is SHAPE
        for a in bank:
            for b in bank:
                if a != b:
                    warp = matrix.warp(a, b)
                    pair = warp.forward.layout, warp.inverse.layout
                    assert pair[0] is WARP and pair[1] is INVERSE or (
                        pair[0] is INVERSE and pair[1] is WARP
                    )
                    if pair[0] is WARP:
                        assert derivative(warp.forward).layout is WARP.lower


def tiny_run_config(**kwargs):
    defaults = dict(lambda0=0.0, grid_size=100, max_iterations=4)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRunSingleThreshold:
    """One threshold's loop, driven alone through `_run_loops`."""

    def test_identical_pair_combines_immediately(self):
        grid = uniform_grid(100)
        curves = [
            refit_on_grid(0, grid, sine_shape(grid.points), members=frozenset({0})),
            refit_on_grid(1, grid, sine_shape(grid.points), members=frozenset({1})),
        ]
        shared = _Shared(curves, tiny_run_config())
        ((records, log),) = _run_loops(shared, [0.5])
        assert len(records) == 1
        assert records[0].partition.groups == (frozenset({0, 1}),)
        assert records[0].iteration == 1

    def test_unreachable_threshold_gives_singleton_fallback(self):
        grid = uniform_grid(100)
        curves = [
            refit_on_grid(0, grid, sine_shape(grid.points), members=frozenset({0})),
            refit_on_grid(1, grid, bump_shape(grid.points), members=frozenset({1})),
        ]
        shared = _Shared(curves, tiny_run_config())
        ((records, log),) = _run_loops(shared, [0.9999])
        assert len(records) == 1
        assert records[0].partition.groups == (frozenset({0}), frozenset({1}))

    def test_noiseless_three_group_mini_scenario(self):
        sc = Scenario(
            shapes=("f1", "f2", "f3"),
            warp="power",
            alphas=(0.9, 0.95, 1.05, 1.1),
            sizes=(4, 4, 4),
            sigma=0.0,
            n_points=100,
            seed=0,
            merged=(0, 2),
        )
        data = generate(sc)
        config = tiny_run_config(lambda0=0.5, max_iterations=10)
        curves = prepare_curves(data.points, data.samples, config)
        shared = _Shared(curves, config)
        c_star = combination_thresholds(shared.matrix.values(), config.quantile_a)[0]
        ((records, _),) = _run_loops(shared, [c_star])
        best = max(records, key=lambda r: r.score)
        assert best.partition.groups == data.truths["natural"]


class TestRun:
    def test_candidates_partition_originals(self):
        sc = Scenario(shapes=("f1", "f2"), warp="power", alphas=(0.9, 1.1),
                      sizes=(2, 2), sigma=0.1, n_points=80, seed=3)
        data = generate(sc)
        config = tiny_run_config()
        curves = prepare_curves(data.points, data.samples, config)
        result = run(curves, config)
        everyone = set(range(4))
        for record in result.candidates:
            ids = sorted(i for g in record.partition.groups for i in g)
            assert ids == sorted(everyone)
        final_ids = sorted(i for g in result.partition.groups for i in g)
        assert final_ids == sorted(everyone)

    def test_iterations_within_limit(self):
        sc = Scenario(shapes=("f1", "f2"), warp="power", alphas=(0.9, 1.1),
                      sizes=(2, 2), sigma=0.1, n_points=80, seed=3)
        data = generate(sc)
        config = tiny_run_config(max_iterations=2)
        curves = prepare_curves(data.points, data.samples, config)
        result = run(curves, config)
        assert result.iterations <= 2
        assert result.iterations == len(result.logs[result.threshold]) >= 1
        for log in result.logs.values():
            assert len(log) <= 2
            assert [entry.iteration for entry in log] == list(range(1, len(log) + 1))

    def test_rerun_identical(self):
        sc = Scenario(shapes=("f1", "f2"), warp="power", alphas=(0.9, 1.1),
                      sizes=(2, 2), sigma=0.1, n_points=80, seed=4)
        data = generate(sc)
        config = tiny_run_config()
        curves = prepare_curves(data.points, data.samples, config)
        one = run(curves, config)
        two = run(prepare_curves(data.points, data.samples, config), config)
        assert one.partition.groups == two.partition.groups
        assert one.threshold == two.threshold
        assert one.index_value == two.index_value

    def test_two_curve_dataset(self):
        grid_points = np.linspace(0, 1, 80)
        rows = [sine_shape(grid_points), sine_shape(grid_points**1.05)]
        config = tiny_run_config()
        curves = prepare_curves(grid_points, rows, config)
        result = run(curves, config)
        assert result.partition.groups in (
            (frozenset({0, 1}),),
            (frozenset({0}), frozenset({1})),
        )

    def test_warp_samples_cover_all_curves(self):
        sc = Scenario(shapes=("f1", "f2"), warp="power", alphas=(0.9, 1.1),
                      sizes=(2, 2), sigma=0.1, n_points=80, seed=5)
        data = generate(sc)
        config = tiny_run_config()
        curves = prepare_curves(data.points, data.samples, config)
        result = run(curves, config)
        assert sorted(result.warps) == [0, 1, 2, 3]
        for samples in result.warps.values():
            assert len(samples) == 101
            assert samples[0] == [0.0, 0.0] and samples[-1] == [1.0, 1.0]


def _sequential_loop(shared, c_star):
    """The combine/update loop of one threshold as it ran before the four
    loops ran in lockstep, kept as the reference: it builds each matrix itself
    through `shared.build_matrix` and returns (records, log)."""
    config = shared.config
    curves = list(shared.originals)
    matrix = shared.matrix
    prev_mean = matrix.mean_rho()
    records = []
    seen = set()
    log = []

    def score_original(groups):
        return shared.score([set(g) for g in groups], shared.original_dist)

    for iteration in range(1, config.max_iterations + 1):
        bank = {c.id: c for c in curves}
        members_of = {i: c.members for i, c in bank.items()}
        dist_current = pipeline.distances_from_similarity(matrix)

        def nu_updated(groups):
            return shared.score(groups, dist_current)

        def nu0(groups):
            return score_original(
                [set().union(*(members_of[c] for c in g)) for g in groups]
            )

        partial = pipeline.assign_groups(list(bank), matrix, c_star, nu_updated)
        n_comb = len(partial.groups)
        if n_comb:
            part = pipeline.candidate_partition(partial, matrix, c_star, nu0, members_of)
            key = frozenset(part.groups)
            if key not in seen:
                seen.add(key)
                records.append(
                    pipeline.CandidateRecord(
                        partition=part,
                        score=score_original(part.groups),
                        threshold=c_star,
                        iteration=iteration,
                    )
                )
            reps = [
                pipeline.combine_group(g, bank, matrix, settings=config.splines)
                for g in partial.groups
            ]
            curves = sorted(
                reps + [bank[u] for u in partial.unassigned], key=lambda c: c.id
            )
            if len(curves) == 1:
                log.append(pipeline.IterationLog(iteration, 1.0, n_comb))
                break
            matrix = shared.build_matrix(curves)

        curves = pipeline.update_all(curves, matrix, config.lambda0, shared.tau, config.splines)
        matrix = shared.build_matrix(curves)
        mean = matrix.mean_rho()
        log.append(pipeline.IterationLog(iteration, mean, n_comb))
        if abs(mean - prev_mean) < pipeline.STABILITY_TOL:
            break
        prev_mean = mean

    if not records:
        singles = Partition(groups=tuple(frozenset([c.id]) for c in shared.originals))
        records = [
            pipeline.CandidateRecord(
                partition=singles,
                score=score_original(singles.groups),
                threshold=c_star,
                iteration=len(log),
            )
        ]
    return records, log


def _sequential(shared, thresholds):
    """Each threshold's loop alone, in threshold order."""
    return [_sequential_loop(shared, c_star) for c_star in thresholds]


def _recorded_builds(monkeypatch):
    """Events of a run from now on: "round" for each lockstep round's search
    and "search" for each `final_points` call that searches some pair."""
    events = []
    search, rounds = similarity.final_points, pipeline.search_uncached

    def searched(pairs, lambda0):
        if pairs:
            events.append("search")
        return search(pairs, lambda0)

    def round_searched(curve_lists, lambda0, cache):
        events.append("round")
        return rounds(curve_lists, lambda0, cache)

    monkeypatch.setattr(similarity, "final_points", searched)
    monkeypatch.setattr(pipeline, "search_uncached", round_searched)
    return events


def _design(seed, rows=range(6), ids=range(6), **config):
    """Two groups of three noisy curves (input rows 0-2 and 3-5), grid 100,
    lambda0 0.5, at most 4 iterations unless `config` says otherwise; curve k
    is input row `rows[k]` under id `ids[k]`."""
    sc = Scenario(shapes=("f1", "f2"), warp="power", alphas=(0.9, 1.1),
                  sizes=(3, 3), sigma=0.1, n_points=80, seed=seed)
    data = generate(sc)
    config = tiny_run_config(lambda0=0.5, **config)
    grid = uniform_grid(config.grid_size)
    curves = [smooth_curve(i, data.points, data.samples[r], grid) for i, r in zip(ids, rows)]
    return curves, config


class TestRowOrder:
    @settings(max_examples=5)
    @given(
        rows=st.permutations(range(6)),
        ids=st.lists(st.integers(0, 10**6), min_size=6, max_size=6, unique=True),
    )
    def test_permuted_rows_give_the_same_partition(self, rows, ids):
        curves, config = _design(1, rows, ids)
        groups = run(curves, config).partition.groups
        # only partitions compare: which way a pair is searched follows the
        # ids, so index values can move slightly.  The weights of the combine
        # and update steps count member ids, so they must not depend on them
        row_of = dict(zip(ids, rows))
        assert {frozenset(row_of[i] for i in g) for g in groups} == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5})
        }


class TestLockstepLoops:
    """The four threshold loops in lockstep rounds give what each loop gives
    alone, in threshold order, byte for byte, with one search per round."""

    @pytest.mark.parametrize(
        "seed, config, combinations",
        [
            # the last threshold's loop ends after one round, the others run on
            (5, {}, [[2, 0, 0, 0]] * 3 + [[2]]),
            (2, {"index": "dunn-I1-J1"}, [[2, 0, 0, 0]] * 2 + [[2, 1, 0, 0], [2, 0, 0, 0]]),
            (9, {"max_iterations": 2}, [[2, 0]] * 2 + [[2, 1], [2, 0]]),
        ],
        ids=["diverging", "dunn", "two-iterations"],
    )
    def test_same_bytes_as_sequential_loops(self, monkeypatch, seed, config, combinations):
        curves, config = _design(seed, **config)
        names = [f"c{c.id}" for c in curves]
        events = _recorded_builds(monkeypatch)
        lockstep = run(curves, config)
        lockstep_events = events[:]
        events.clear()
        monkeypatch.setattr(pipeline, "_run_loops", _sequential)
        sequential = run(curves, config)
        assert result_json(lockstep, names) == result_json(sequential, names)
        assert lockstep.logs == sequential.logs
        assert [
            [entry.combinations for entry in log] for log in lockstep.logs.values()
        ] == combinations
        # the initial build searches, then only each round's one build does
        assert lockstep_events[0] == "search"
        pairs = zip(lockstep_events, lockstep_events[1:])
        assert all(before == "round" for before, event in pairs if event == "search")
        assert lockstep_events.count("search") < events.count("search")

    def test_loop_raising_mid_run_closes_every_loop(self, monkeypatch):
        curves, config = _design(5)
        updates, loops = [], []
        update, loop = pipeline.update_all, pipeline._threshold_loop

        def third_update_fails(*args, **kwargs):
            updates.append(None)
            if len(updates) == 3:
                raise DegenerateDataError("third update")
            return update(*args, **kwargs)

        def recorded_loop(shared, c_star):
            loops.append(loop(shared, c_star))
            return loops[-1]

        monkeypatch.setattr(pipeline, "update_all", third_update_fails)
        monkeypatch.setattr(pipeline, "_threshold_loop", recorded_loop)
        with pytest.raises(DegenerateDataError, match="third update"):
            run(curves, config)
        assert len(loops) == 4
        assert [inspect.getgeneratorstate(g) for g in loops] == [inspect.GEN_CLOSED] * 4
        assert_no_child()
