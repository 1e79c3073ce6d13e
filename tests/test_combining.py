import math
from typing import List

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from curveclust.combining import (
    assign_groups,
    candidate_partition,
    combine_group,
    complete_clustering,
    PartialClustering,
)
from curveclust.curves import refit_on_grid
from curveclust.errors import InvalidInputError
from curveclust.indices import silhouette
from curveclust.products import sum_in_order
from curveclust.similarity import similarity_matrix
from curveclust.splines import Grid

from .conftest import pair_distances, sine_shape


class FakeMatrix:
    """Pinned pairwise similarities for hand-traced algorithm tests."""

    def __init__(self, rhos):
        self._rhos = {}
        for (a, b), v in rhos.items():
            self._rhos[(min(a, b), max(a, b))] = v

    def rho(self, a, b):
        return self._rhos[(min(a, b), max(a, b))]

    def pairs(self):
        return sorted(self._rhos)


def silhouette_nu(matrix):
    dist = pair_distances({p: max(0.0, 1.0 - matrix.rho(*p)) for p in matrix.pairs()})

    def nu(groups):
        return silhouette(groups, dist)

    return nu


def reference_assign_groups(ids, matrix, c_star, nu) -> PartialClustering:
    """The loop the table-driven assign_groups replaced: one matrix.rho call
    per comparison."""
    ids = sorted(ids)
    if len(ids) < 2:
        raise InvalidInputError("need at least 2 curves to assign groups")

    def rho(a, b):
        return matrix.rho(a, b)

    def similar(a, b):
        return matrix.rho(a, b) > c_star

    score = {
        i: sum(rho(i, j) for j in ids if j != i and similar(i, j)) for i in ids
    }
    sequence = sorted(ids, key=lambda i: (-score[i], i))
    groups: List[List[int]] = []
    while sequence:
        seed = sequence[0]
        candidates = sorted(
            (i for i in sequence[1:] if similar(seed, i)),
            key=lambda i: (-rho(seed, i), i),
        )
        admitted = [seed]
        for cand in candidates:
            if all(similar(cand, m) for m in admitted):
                admitted.append(cand)

        alive = set(admitted)
        has_conflict = any(
            any(c not in alive and similar(c, m) for c in ids) for m in admitted
        )
        if has_conflict:
            for member in admitted:  # examined in admission order
                if member not in alive:
                    continue
                similar_to_member = {c for c in ids if c != member and similar(c, member)}
                similar_to_group = {
                    c
                    for c in ids
                    if all(similar(c, m) for m in alive if m != c)
                }
                conflicts = similar_to_member - similar_to_group
                if not conflicts:
                    continue
                rival = sorted(conflicts, key=lambda c: (-rho(member, c), c))[0]
                keep = nu([set(alive), {rival}])
                leave = nu([{member, rival}, alive - {member}])
                if not keep > leave:
                    alive.remove(member)  # rejoins the sequence for later seeds

        final = [m for m in admitted if m in alive]
        groups.append(final)
        sequence = [i for i in sequence if i not in alive]

    kept = [g for g in groups if len(g) >= 2]
    grouped = {i for g in kept for i in g}
    return PartialClustering(
        groups=kept, unassigned=[i for i in ids if i not in grouped]
    )


def random_assignment_case(seed):
    """A symmetric matrix over 2-40 ids, rounded to one decimal on odd seeds
    so that similarities tie with each other and with the threshold, and a
    threshold from a matrix value or between values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    ids = sorted(rng.choice(1000, size=n, replace=False).tolist())
    values = rng.uniform(-0.2, 1.0, n * n)
    if seed % 2:
        values = np.round(values, 1)
    matrix = FakeMatrix(
        {(ids[i], ids[j]): float(values[i * n + j]) for i in range(n) for j in range(i + 1, n)}
    )
    c_star = float(values[1]) if seed % 4 < 2 else float(rng.uniform(0.2, 0.8))
    return ids, matrix, c_star


def recorded_nu(matrix, calls):
    """A silhouette nu that logs each call's groups in their iteration order."""
    nu = silhouette_nu(matrix)

    def recording(groups):
        calls.append([list(g) for g in groups])
        return nu(groups)

    return recording


class TestAssignGroupsMatchesLoop:
    """The table-driven assign_groups gives the loop's groups, unassigned ids
    and sequence of nu calls, each group in the same iteration order."""

    @staticmethod
    def check(seed):
        ids, matrix, c_star = random_assignment_case(seed)
        got_calls, want_calls = [], []
        got = assign_groups(list(reversed(ids)), matrix, c_star, recorded_nu(matrix, got_calls))
        want = reference_assign_groups(ids, matrix, c_star, recorded_nu(matrix, want_calls))
        assert got == want, seed
        assert got_calls == want_calls, seed

    @given(st.integers(200, 10_000))
    def test_same_groups_and_nu_calls(self, seed):
        self.check(seed)

    def test_first_seeds(self):
        # a sum of scores in another order moves the seed order on about 3%
        # of these cases, through ties of rounded similarities
        for seed in range(200):
            self.check(seed)

    def test_cases_reach_the_retention_test(self):
        kept = removed = 0
        for seed in range(60):
            ids, matrix, c_star = random_assignment_case(seed)
            calls = []
            nu = silhouette_nu(matrix)
            reference_assign_groups(ids, matrix, c_star, recorded_nu(matrix, calls))
            for keep, leave in zip(calls[::2], calls[1::2]):
                if nu(keep) > nu(leave):
                    kept += 1
                else:
                    removed += 1
        assert kept >= 10 and removed >= 10


class TestAssignGroups:
    def test_all_similar_single_group(self):
        matrix = FakeMatrix({(a, b): 0.95 for a in range(4) for b in range(a + 1, 4)})
        partial = assign_groups(range(4), matrix, 0.5, silhouette_nu(matrix))
        assert partial.groups == [[0, 1, 2, 3]]
        assert partial.unassigned == []

    def test_nothing_similar_all_unassigned(self):
        matrix = FakeMatrix({(a, b): 0.1 for a in range(4) for b in range(a + 1, 4)})
        partial = assign_groups(range(4), matrix, 0.5, silhouette_nu(matrix))
        assert partial.groups == []
        assert partial.unassigned == [0, 1, 2, 3]

    def test_hand_traced_conflict_case(self):
        # rho(1,2)=0.9, rho(1,3)=0.85, rho(2,3)=0.2, threshold 0.5:
        # 1 seeds, admits 2; 3 conflicts with the group through 1; the
        # retention comparison keeps 1 (traced by hand on the pinned values)
        matrix = FakeMatrix({(1, 2): 0.9, (1, 3): 0.85, (2, 3): 0.2})
        partial = assign_groups([1, 2, 3], matrix, 0.5, silhouette_nu(matrix))
        assert partial.groups == [[1, 2]]
        assert partial.unassigned == [3]

    def test_retention_moves_torn_member_out(self):
        # member 1 is barely similar to its group mate 0 but strongly tied to
        # 2 and 3 outside; the index comparison sends it back
        matrix = FakeMatrix(
            {(0, 1): 0.52, (0, 2): 0.1, (0, 3): 0.1,
             (1, 2): 0.95, (1, 3): 0.2, (2, 3): 0.45}
        )
        partial = assign_groups([0, 1, 2, 3], matrix, 0.5, silhouette_nu(matrix))
        assert [1, 2] in partial.groups
        assert 0 in partial.unassigned

    def test_groups_are_cliques_or_ratified(self):
        rng = np.random.default_rng(3)
        ids = list(range(8))
        matrix = FakeMatrix(
            {(a, b): rng.uniform(0, 1) for a in ids for b in ids if a < b}
        )
        c_star = 0.55
        partial = assign_groups(ids, matrix, c_star, silhouette_nu(matrix))
        for group in partial.groups:
            ok_clique = all(
                matrix.rho(a, b) > c_star
                for a in group
                for b in group
                if a < b
            )
            assert ok_clique or len(group) >= 2  # ratified members allowed

    def test_cover_and_disjoint(self):
        rng = np.random.default_rng(7)
        ids = list(range(9))
        matrix = FakeMatrix({(a, b): rng.uniform(0, 1) for a in ids for b in ids if a < b})
        partial = assign_groups(ids, matrix, 0.6, silhouette_nu(matrix))
        seen = [i for g in partial.groups for i in g] + list(partial.unassigned)
        assert sorted(seen) == ids


class TestSumsInOrder:
    """Float sums that decide orders add left to right, one rounding per
    term, whatever the Python version's builtin `sum` does."""

    def test_equals_an_explicit_loop(self):
        rng = np.random.default_rng(34)
        cases = [[], [1e16, 1.0, -1e16], [0.1, 0.2, 0.3], [-0.0]]
        for n in range(1, 60):
            cases.append((rng.normal(size=n) * 10.0 ** rng.integers(-8, 17, n)).tolist())
        for values in cases:
            acc = 0.0
            for x in values:
                acc = acc + x
            assert sum_in_order(values) == acc
            assert sum_in_order(iter(values)) == acc
        assert sum_in_order([1e16, 1.0, -1e16]) == 0.0  # compensated sums give 1.0

    def test_connectivity_scores_add_in_order(self):
        # curve 1's similar neighbors add up to 0.1 + 0.2 + 0.3, which is
        # 0.6000000000000001 in order but exactly 0.6 as math.fsum adds it;
        # curve 0's add up to 0.3 + 0.3 = 0.6 either way.  In-order sums
        # grow curve 1's group first; exact sums would tie and grow curve 0's
        assert sum_in_order([0.1, 0.2, 0.3]) > sum_in_order([0.3, 0.3])
        assert math.fsum([0.1, 0.2, 0.3]) == math.fsum([0.3, 0.3])
        rhos = {(a, b): 0.01 for a in range(5) for b in range(a + 1, 5)}
        rhos.update({(0, 1): 0.0, (0, 2): 0.3, (0, 3): 0.3, (0, 4): 0.0})
        rhos.update({(1, 2): 0.1, (1, 3): 0.2, (1, 4): 0.3})
        calls = []

        def nu(groups):
            calls.append([sorted(g) for g in groups])
            return float({1, 4} in [set(g) for g in groups])

        partial = assign_groups(range(5), FakeMatrix(rhos), 0.05, nu)
        assert calls[0] == [[1, 4], [3]]  # the retention test of curve 1's group
        assert partial.groups == [[1, 4]]


class TestCombineGroup:
    def setup_method(self):
        self.grid = Grid(200)

    def curves_and_matrix(self, amplitudes, sizes=None):
        """Curve i stands for sizes[i] original curves (default 1), with
        ids 10 i, 10 i + 1, ..."""
        curves = {}
        for i, amp in enumerate(amplitudes):
            size = 1 if sizes is None else sizes[i]
            curves[i] = refit_on_grid(
                i,
                self.grid,
                amp * sine_shape(self.grid.points),
                members=frozenset(range(10 * i, 10 * i + size)),
            )
        matrix = similarity_matrix(list(curves.values()), 0.0)
        return curves, matrix

    def test_two_identical_curves(self):
        curves, matrix = self.curves_and_matrix([1.0, 1.0])
        rep = combine_group([0, 1], curves, matrix)
        assert np.abs(rep.samples - curves[0].samples).max() <= 1e-6

    def test_weight_equals_replication(self):
        # weights (3,1) equal the fit with the first member's samples tripled
        curves, matrix = self.curves_and_matrix([1.0, 1.6], sizes=[3, 1])
        rep = combine_group([0, 1], curves, matrix)

        from curveclust.splines import SHAPE, fit_least_squares

        # reference is the member with the larger mean similarity (tie -> id 0)
        warp = matrix.warp(1, 0)
        t_other = np.clip(warp.forward(self.grid.points), 0, 1)
        xs = np.concatenate([np.tile(self.grid.points, 3), [*t_other]])
        ys = np.concatenate([np.tile(curves[0].samples, 3), curves[1].samples])
        fit = fit_least_squares(xs, ys, np.ones_like(xs), SHAPE)
        np.testing.assert_allclose(
            rep.samples, fit(self.grid.points), atol=1e-9
        )

    def test_bookkeeping(self):
        curves, matrix = self.curves_and_matrix([1.0, 1.2, 0.9], sizes=[2, 1, 4])
        rep = combine_group([0, 1, 2], curves, matrix)
        assert rep.n_orig == 7
        assert rep.members == frozenset({0, 1, 10, 20, 21, 22, 23})
        assert rep.id == 0

    def test_member_order_invariance(self):
        curves, matrix = self.curves_and_matrix([1.0, 1.3, 0.8])
        rep_a = combine_group([0, 1, 2], curves, matrix)
        rep_b = combine_group([2, 0, 1], curves, matrix)
        np.testing.assert_array_equal(rep_a.samples, rep_b.samples)


def pinned_nu0(distances):
    dist = pair_distances(distances)

    def nu0(groups):
        return silhouette(groups, dist)

    return nu0


class TestCompleteClustering:
    def test_empty_unassigned_returns_groups(self):
        nu0 = pinned_nu0({(0, 1): 0.1})
        groups = complete_clustering([{0}, {1}], [], nu0)
        assert groups == [{0}, {1}]

    def test_near_group_curve_joins_it(self):
        # two tight groups; curve 4 close to group one
        d = {}
        for a, b in [(0, 1), (2, 3)]:
            d[(a, b)] = 0.05
        for a in (0, 1):
            for b in (2, 3):
                d[(a, b)] = 0.9
        d[(0, 4)] = d[(1, 4)] = 0.1
        d[(2, 4)] = d[(3, 4)] = 0.9
        nu0 = pinned_nu0(d)
        groups = complete_clustering([{0, 1}, {2, 3}], [4], nu0)
        assert {0, 1, 4} in groups

    def test_equally_far_outlier_becomes_singleton(self):
        d = {}
        for a, b in [(0, 1), (2, 3)]:
            d[(a, b)] = 0.05
        for a in (0, 1):
            for b in (2, 3):
                d[(a, b)] = 0.9
        for a in (0, 1, 2, 3):
            d[(a, 4)] = 0.9
        nu0 = pinned_nu0(d)
        groups = complete_clustering([{0, 1}, {2, 3}], [4], nu0)
        assert {4} in groups


class TestCandidatePartition:
    def members_of(self, ids):
        return {i: frozenset({i}) for i in ids}

    def test_single_group_no_unassigned(self):
        matrix = FakeMatrix({(0, 1): 0.9})
        partial = PartialClustering(groups=[[0, 1]], unassigned=[])
        part = candidate_partition(partial, matrix, 0.5, pinned_nu0({(0, 1): 0.1}), self.members_of([0, 1]))
        assert part.groups == (frozenset({0, 1}),)

    def test_similar_pair_merges(self):
        matrix = FakeMatrix({(0, 1): 0.9})
        partial = PartialClustering(groups=[], unassigned=[0, 1])
        part = candidate_partition(partial, matrix, 0.5, pinned_nu0({(0, 1): 0.1}), self.members_of([0, 1]))
        assert part.groups == (frozenset({0, 1}),)

    def test_dissimilar_pair_stays_split(self):
        matrix = FakeMatrix({(0, 1): 0.2})
        partial = PartialClustering(groups=[], unassigned=[0, 1])
        part = candidate_partition(partial, matrix, 0.5, pinned_nu0({(0, 1): 0.8}), self.members_of([0, 1]))
        assert part.groups == (frozenset({0}), frozenset({1}))

    def test_lone_curve_far_from_group_stays_alone(self):
        # kappa comparison: moving any member out never beats the baseline
        d = {}
        group = [0, 1, 2]
        for a in group:
            for b in group:
                if a < b:
                    d[(a, b)] = 0.05
            d[(a, 3)] = 0.9
        matrix = FakeMatrix({k: 1 - v for k, v in d.items()})
        partial = PartialClustering(groups=[[0, 1, 2]], unassigned=[3])
        part = candidate_partition(partial, matrix, 0.5, pinned_nu0(d), self.members_of(range(4)))
        assert part.groups == (frozenset({0, 1, 2}), frozenset({3}))

    def test_lone_curve_close_to_group_absorbed(self):
        d = {}
        group = [0, 1, 2]
        for a in group:
            for b in group:
                if a < b:
                    d[(a, b)] = 0.30
        # curve 3 sits inside the group's spread
        d[(0, 3)] = 0.05
        d[(1, 3)] = 0.30
        d[(2, 3)] = 0.65
        matrix = FakeMatrix({k: 1 - v for k, v in d.items()})
        partial = PartialClustering(groups=[[0, 1, 2]], unassigned=[3])
        part = candidate_partition(partial, matrix, 0.5, pinned_nu0(d), self.members_of(range(4)))
        assert part.groups == (frozenset({0, 1, 2, 3}),)

    def test_seeding_from_unassigned_only(self):
        # no groups, four unassigned curves forming two pairs.  All seed
        # comparisons are two-singleton partitions (silhouette 0), so the
        # ascending-id tie rule seeds 0 and 1; completion then pairs up the
        # remaining two curves (hand-traced).
        d = {(0, 1): 0.05, (2, 3): 0.05}
        for a in (0, 1):
            for b in (2, 3):
                d[(a, b)] = 0.9
        matrix = FakeMatrix({k: 1 - v for k, v in d.items()})
        partial = PartialClustering(groups=[], unassigned=[0, 1, 2, 3])
        part = candidate_partition(partial, matrix, 0.95, pinned_nu0(d), self.members_of(range(4)))
        assert set(part.groups) == {frozenset({0}), frozenset({1}), frozenset({2, 3})}

    def test_expansion_to_original_ids(self):
        matrix = FakeMatrix({(0, 5): 0.9})
        members_of = {0: frozenset({0, 1, 2}), 5: frozenset({5, 6})}
        partial = PartialClustering(groups=[[0, 5]], unassigned=[])
        part = candidate_partition(partial, matrix, 0.5, pinned_nu0({(0, 5): 0.1}), members_of)
        assert part.groups == (frozenset({0, 1, 2, 5, 6}),)

    def test_partition_covers_disjointly(self):
        rng = np.random.default_rng(1)
        ids = list(range(6))
        matrix = FakeMatrix({(a, b): rng.uniform(0, 1) for a in ids for b in ids if a < b})
        d = {p: max(0.0, 1 - matrix.rho(*p)) for p in matrix.pairs()}
        partial = PartialClustering(groups=[[0, 1], [2, 3]], unassigned=[4, 5])
        part = candidate_partition(partial, matrix, 0.5, pinned_nu0(d), self.members_of(ids))
        all_ids = sorted(i for g in part.groups for i in g)
        assert all_ids == ids
