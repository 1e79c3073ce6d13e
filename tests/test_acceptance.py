"""Acceptance gate: every criterion at its stated tolerance, one line each.

The clustering-quality criteria use the scaled three-group design (4 curves
per group, power warps {0.9, 0.95, 1.05, 1.1}, noise 0.15, grid 100) and the
noiseless two-group design; runs are memoized per (seed, lambda0, index) so
criteria sharing a configuration reuse the same result.
"""

import numpy as np
import pytest

from curveclust.curves import refit_on_grid
from curveclust.indices import adjusted_rand
from curveclust.pipeline import RunConfig, prepare_curves, run
from curveclust.similarity import similarity
from curveclust.simulation import Scenario, generate, scenario_preset
from curveclust.splines import uniform_grid
from curveclust.updating import UpdateContext
from curveclust.warping import (
    make_warping,
    n_raw_params,
    power_warp_raw,
    rho_parts,
    roughness_penalty,
)

from .conftest import random_smooth_curve, sine_shape, standing_for
from .oracles import verify_improvement

SEEDS = (1, 2, 3, 4, 5)


def scaled_scenario(seed):
    return Scenario(
        shapes=("f1", "f2", "f3"),
        warp="power",
        alphas=(0.9, 0.95, 1.05, 1.1),
        sizes=(4, 4, 4),
        sigma=0.15,
        n_points=100,
        seed=seed,
        merged=(0, 2),
    )


@pytest.fixture(scope="session")
def scaled_runs():
    cache = {}

    def get(seed, lambda0, index="silhouette"):
        key = (seed, lambda0, index)
        if key not in cache:
            data = generate(scaled_scenario(seed))
            config = RunConfig(lambda0=lambda0, grid_size=100, index=index)
            curves = prepare_curves(data.points, data.samples, config)
            cache[key] = (run(curves, config), data)
        return cache[key]

    return get


class TestCriterion1AriOracles:
    @pytest.mark.parametrize(
        "sizes,expected",
        [
            ((10, 10, 10), 0.5538),
            ((10, 10, 20), 0.5185),
            ((10, 20, 10), 0.7417),
            ((20, 20, 10), 0.6755),
            ((20, 10, 20), 0.4096),
        ],
    )
    def test_merged_truth_constants(self, sizes, expected):
        start = 0
        three = []
        for size in sizes:
            three.append(frozenset(range(start, start + size)))
            start += size
        two = [three[0] | three[2], three[1]]
        value = adjusted_rand(two, three)
        assert value == pytest.approx(expected, abs=1e-4)
        print(f"criterion 1 [{sizes}]: ARI {value:.4f} vs {expected} -> pass")


class TestCriterion2ScaledContrast:
    def test_lambda_zero_recovers_two_clusters(self, scaled_runs):
        hits = 0
        for seed in SEEDS:
            result, data = scaled_runs(seed, 0.0)
            ari = adjusted_rand(result.partition.groups, data.truths["merged"])
            hits += ari >= 0.95
        print(f"criterion 2 (lambda0=0, two-cluster truth): {hits}/5 seeds -> "
              f"{'pass' if hits >= 4 else 'FAIL'}")
        assert hits >= 4

    def test_lambda_half_recovers_three_clusters(self, scaled_runs):
        hits = 0
        for seed in SEEDS:
            result, data = scaled_runs(seed, 0.5)
            ari = adjusted_rand(result.partition.groups, data.truths["natural"])
            hits += ari >= 0.95
        print(f"criterion 2 (lambda0=0.5, three-cluster truth): {hits}/5 seeds -> "
              f"{'pass' if hits >= 4 else 'FAIL'}")
        assert hits >= 4


class TestCriterion3TwoGroupRecovery:
    def test_noiseless_two_groups_exact(self):
        hits = 0
        for seed in (0, 1, 2):
            data = generate(scenario_preset("s33b", seed=seed))
            config = RunConfig(lambda0=0.0, grid_size=100)
            curves = prepare_curves(data.points, data.samples, config)
            result = run(curves, config)
            ari = adjusted_rand(result.partition.groups, data.truths["natural"])
            hits += ari == 1.0
        print(f"criterion 3 (noiseless two groups): {hits}/3 exact -> "
              f"{'pass' if hits == 3 else 'FAIL'}")
        assert hits == 3


class TestCriterion4ImprovementGuarantee:
    def test_two_hundred_random_instances(self):
        grid = uniform_grid(200)
        qualifying = failures = 0
        for instance in range(200):
            rng = np.random.default_rng(1000 + instance)
            k = int(rng.integers(2, 5))
            target = random_smooth_curve(0, grid, rng)
            others = [random_smooth_curve(j + 1, grid, rng) for j in range(k - 1)]
            warps = [
                make_warping(rng.normal(0.0, 0.4, n_raw_params())) for _ in range(k - 1)
            ]
            lambda0 = float(rng.choice([0.0, 0.25, 0.5]))
            others = [standing_for(o, int(rng.integers(1, 4))) for o in others]
            ctx = UpdateContext(
                target=target,
                others=others,
                warps=warps,
                sims=[
                    rho_parts(target, o, w, lambda0).rho for o, w in zip(others, warps)
                ],
                tau=float(rng.uniform(0.5, 3.0)),
                lambda0=lambda0,
            )
            check = verify_improvement(ctx)
            if check.qualifies:
                qualifying += 1
                if check.sum_after < check.sum_before - 1e-6:
                    failures += 1
        print(f"criterion 4 (improvement guarantee): {qualifying} qualifying, "
              f"{failures} failures -> {'pass' if failures == 0 else 'FAIL'}")
        assert qualifying >= 20
        assert failures == 0


class TestCriterion5PenaltyAnalytics:
    def test_closed_form_penalties(self, grid500):
        p25 = roughness_penalty(make_warping(power_warp_raw(2.5)), grid500)
        p20 = roughness_penalty(make_warping(power_warp_raw(2.0)), grid500)
        ok = abs(p25 - 0.5625) <= 0.05 * 0.5625 and abs(p20 - 1 / 3) <= 0.05 / 3
        print(f"criterion 5 (penalties): t^2.5 -> {p25:.4f} (0.5625), "
              f"t^2 -> {p20:.4f} (0.3333) -> {'pass' if ok else 'FAIL'}")
        assert p25 == pytest.approx(0.5625, rel=0.05)
        assert p20 == pytest.approx(1.0 / 3.0, rel=0.05)


class TestCriterion6WarpRecovery:
    def test_power_warp_recovery(self, grid500):
        f = refit_on_grid(0, grid500, sine_shape(grid500.points**1.2))
        g = refit_on_grid(1, grid500, sine_shape(grid500.points))
        entry = similarity(f, g, 0.0)
        check = np.linspace(0, 1, 257)
        sup = np.abs(entry.warp.forward(check) - check**1.2).max()
        ok = sup <= 0.02 and entry.rho >= 0.99
        print(f"criterion 6 (warp recovery): sup dev {sup:.4f}, rho {entry.rho:.4f} -> "
              f"{'pass' if ok else 'FAIL'}")
        assert sup <= 0.02
        assert entry.rho >= 0.99


class TestCriterion7IndexRobustness:
    def test_dunn_matches_silhouette(self, scaled_runs):
        agreements = 0
        for seed in SEEDS:
            sil, _ = scaled_runs(seed, 0.5, "silhouette")
            dun, _ = scaled_runs(seed, 0.5, "dunn-I1-J1")
            agreements += frozenset(sil.partition.groups) == frozenset(dun.partition.groups)
        print(f"criterion 7 (Dunn vs Silhouette): {agreements}/5 identical -> "
              f"{'pass' if agreements >= 4 else 'FAIL'}")
        assert agreements >= 4


class TestCriterion8PenaltyMonotonicity:
    def test_rho_nonincreasing_in_lambda0(self):
        grid = uniform_grid(200)
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            a = random_smooth_curve(0, grid, rng)
            b = random_smooth_curve(1, grid, rng)
            values = [similarity(a, b, lam).rho for lam in (0.0, 0.25, 0.5, 1.0)]
            for high, low in zip(values, values[1:]):
                worst = max(worst, low - high)
        print(f"criterion 8 (monotone in lambda0): worst increase {worst:.2e} -> "
              f"{'pass' if worst <= 1e-9 else 'FAIL'}")
        assert worst <= 1e-9


class TestCriterion9Determinism:
    def test_cluster_cli_byte_identical(self, tmp_path):
        from curveclust.cli import main

        curves = tmp_path / "curves.csv"
        labels = tmp_path / "labels.csv"
        assert main(
            [
                "simulate", "--scenario", "s33b", "--sizes", "2,2", "--points", "80",
                "--seed", "3", "--out", str(curves), "--labels", str(labels),
            ]
        ) == 0
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                [
                    "cluster", "--input", str(curves), "--lambda0", "0.1",
                    "--grid", "80", "--max-iter", "3",
                    "--output", str(out),
                ]
            ) == 0
            blobs.append(out.read_bytes())
        ok = blobs[0] == blobs[1]
        print(f"criterion 9 (determinism): byte-identical={ok} -> "
              f"{'pass' if ok else 'FAIL'}")
        assert ok
