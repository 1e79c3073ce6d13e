import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curveclust.errors import ElementMismatchError, InvalidInputError, UndefinedIndexError
from curveclust.indices import (
    DUNN_INTER,
    DUNN_INTRA,
    INDEX_NAMES,
    adjusted_rand,
    distances_from_similarity,
    dunn,
    index_function,
    silhouette,
)
from curveclust.similarity import SimilarityEntry, SimilarityMatrix

from .conftest import identity_warp
from .conftest import pair_distances as pinned


class ReferenceDistances:
    """The dict-of-pairs distance store the array store replaced."""

    def __init__(self, entries):
        self._entries = entries

    def d(self, a, b) -> float:
        if a == b:
            return 0.0
        key = (a, b) if (a, b) in self._entries else (b, a)
        return self._entries[key]


def reference_silhouette(groups, dist) -> float:
    groups = [list(g) for g in groups]
    if len(groups) < 2:
        raise UndefinedIndexError("silhouette needs at least 2 groups")
    scores = []
    for gi, group in enumerate(groups):
        for x in group:
            if len(group) == 1:
                scores.append(0.0)
                continue
            a = float(np.mean([dist.d(x, y) for y in group if y != x]))
            b = min(
                float(np.mean([dist.d(x, y) for y in other]))
                for gj, other in enumerate(groups)
                if gj != gi
            )
            top = max(a, b)
            scores.append(0.0 if top == 0.0 else (b - a) / top)
    return float(np.mean(scores))


def loop_silhouette(groups, dist) -> float:
    """The per-element loop the whole-array silhouette replaced: one
    `np.mean` of a distance row per element and group."""
    groups = [[dist.row[x] for x in g] for g in groups]
    if len(groups) < 2:
        raise UndefinedIndexError("silhouette needs at least 2 groups")
    scores = []
    for gi, group in enumerate(groups):
        for k, x in enumerate(group):
            if len(group) == 1:
                scores.append(0.0)
                continue
            d = dist.array[x]
            a = float(np.mean(d[group[:k] + group[k + 1 :]]))
            b = min(
                float(np.mean(d[other]))
                for gj, other in enumerate(groups)
                if gj != gi
            )
            top = max(a, b)
            scores.append(0.0 if top == 0.0 else (b - a) / top)
    return float(np.mean(scores))


def reference_inter_distance(ga, gb, dist, variant):
    values = [dist.d(x, y) for x in ga for y in gb]
    if variant == "I1":
        return min(values)
    if variant == "I2":
        return max(values)
    if variant == "I3":
        return float(np.mean(values))
    raise InvalidInputError(f"unknown inter-cluster distance: {variant!r}")


def reference_intra_distance(group, dist, variant):
    group = list(group)
    if len(group) < 2:
        return 0.0
    values = [
        dist.d(group[i], group[j])
        for i in range(len(group))
        for j in range(i + 1, len(group))
    ]
    if variant == "J1":
        return max(values)
    if variant == "J2":
        return float(np.mean(values))
    raise InvalidInputError(f"unknown intra-cluster distance: {variant!r}")


def reference_dunn(groups, dist, inter="I1", intra="J1") -> float:
    groups = [list(g) for g in groups]
    if len(groups) < 2:
        raise UndefinedIndexError("Dunn index needs at least 2 groups")
    numer = min(
        reference_inter_distance(groups[i], groups[j], dist, inter)
        for i in range(len(groups))
        for j in range(i + 1, len(groups))
    )
    denom = max(reference_intra_distance(g, dist, intra) for g in groups)
    if denom == 0.0:
        return float("inf")
    return numer / denom


def reference_values(entries) -> list:
    return [e.rho for _, e in sorted(entries.items())]


def random_case(seed, string_ids):
    """Seeded similarity entries over 2-14 ids (some rho below 0, some
    repeated) and a random partition with singletons, each group listed in
    shuffled order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    ids = [f"c{k}" for k in range(n)] if string_ids else list(range(n))
    ids = sorted(ids)
    if seed % 3 == 0:
        rhos = rng.choice([-0.2, 0.3, 0.9, 1.0], size=n * n)
    else:
        rhos = rng.uniform(-0.3, 1.0, n * n)
    warp = identity_warp()
    entries = {
        (ids[i], ids[j]): SimilarityEntry(float(rhos[i * n + j]), warp, 0.0, 0.0, 0.0, 0.0)
        for i in range(n)
        for j in range(i + 1, n)
    }
    labels = rng.integers(0, int(rng.integers(2, n + 1)), n)
    labels[:2] = [0, 1]  # at least two groups
    order = [ids[k] for k in rng.permutation(n)]
    groups = [[x for x in order if labels[ids.index(x)] == g] for g in np.unique(labels)]
    return ids, entries, groups


def random_large_case(seed, string_ids):
    """Seeded similarity entries over 15-70 ids and a random partition with
    at least one group of 9 or more members, so that means sum enough values
    for numpy's pairwise sum to differ from a sequential one.  Every third
    seed draws rho from four values (ties, and zero distances at rho 1); some
    partitions hold a singleton."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 71))
    ids = [f"c{k:02d}" for k in range(n)] if string_ids else list(range(n))
    if seed % 3 == 0:
        rhos = rng.choice([-0.2, 0.3, 0.9, 1.0], size=n * n)
    else:
        rhos = rng.uniform(-0.3, 1.0, n * n)
    warp = identity_warp()
    entries = {
        (ids[i], ids[j]): SimilarityEntry(float(rhos[i * n + j]), warp, 0.0, 0.0, 0.0, 0.0)
        for i in range(n)
        for j in range(i + 1, n)
    }
    k = int(rng.integers(2, 2 + n // 9))
    labels = rng.integers(0, k, n)
    labels[:9] = 0
    labels[9] = 1  # at least two groups
    if seed % 2:
        labels[-1] = k  # a singleton
    labels = labels[rng.permutation(n)]
    order = [ids[j] for j in rng.permutation(n)]
    groups = [[x for x in order if labels[ids.index(x)] == g] for g in np.unique(labels)]
    return ids, entries, groups


class TestSilhouette:
    def test_two_singletons_score_zero(self):
        dist = pinned({("a", "b"): 0.7})
        assert silhouette([{"a"}, {"b"}], dist) == 0.0

    def test_hand_computed_value(self):
        dist = pinned({("a", "b"): 0.1, ("a", "c"): 1.0, ("b", "c"): 1.0})
        # s(a) = s(b) = 0.9, s(c) = 0 -> mean 0.6
        assert silhouette([{"a", "b"}, {"c"}], dist) == pytest.approx(0.6)

    def test_perfect_separation(self):
        dist = pinned(
            {("a", "b"): 0.0, ("c", "d"): 0.0, ("a", "c"): 1.0, ("a", "d"): 1.0,
             ("b", "c"): 1.0, ("b", "d"): 1.0}
        )
        assert silhouette([{"a", "b"}, {"c", "d"}], dist) == 1.0

    def test_single_group_rejected(self):
        with pytest.raises(UndefinedIndexError):
            silhouette([{"a", "b"}], pinned({("a", "b"): 0.1}))

    def test_range(self):
        rng = np.random.default_rng(0)
        ids = list(range(6))
        dist = pinned({(i, j): rng.uniform(0, 1) for i in ids for j in ids if i < j})
        value = silhouette([{0, 1, 2}, {3, 4}, {5}], dist)
        assert -1.0 <= value <= 1.0


class TestDunn:
    def test_hand_computed_min_max(self):
        dist = pinned({("a", "b"): 0.1, ("a", "c"): 1.0, ("b", "c"): 1.0})
        assert dunn([{"a", "b"}, {"c"}], dist, "I1", "J1") == pytest.approx(10.0)

    def test_hand_computed_means(self):
        dist = pinned({("a", "b"): 0.1, ("a", "c"): 1.0, ("b", "c"): 1.0})
        assert dunn([{"a", "b"}, {"c"}], dist, "I3", "J2") == pytest.approx(10.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        ids = list(range(6))
        base = {(i, j): rng.uniform(0.1, 1) for i in ids for j in ids if i < j}
        groups = [{0, 1}, {2, 3}, {4, 5}]
        for inter in ("I1", "I2", "I3"):
            for intra in ("J1", "J2"):
                one = dunn(groups, pinned(base), inter, intra)
                two = dunn(groups, pinned({k: 2 * v for k, v in base.items()}), inter, intra)
                assert one == pytest.approx(two)

    def test_zero_denominator_sentinel(self):
        dist = pinned({("a", "b"): 1.0})
        assert dunn([{"a"}, {"b"}], dist) == float("inf")

    def test_single_group_rejected(self):
        with pytest.raises(UndefinedIndexError):
            dunn([{"a", "b"}], pinned({("a", "b"): 0.5}))

    @pytest.mark.parametrize("variants", [{"inter": "I4"}, {"intra": "J3"}])
    def test_unknown_variant_rejected(self, variants):
        dist = pinned({("a", "b"): 0.1, ("a", "c"): 1.0, ("b", "c"): 1.0})
        with pytest.raises(InvalidInputError):
            dunn([{"a", "b"}, {"c"}], dist, **variants)


def partition_of_sizes(sizes, offset=0):
    groups = []
    n = offset
    for s in sizes:
        groups.append(frozenset(range(n, n + s)))
        n += s
    return groups


class TestAdjustedRand:
    def test_identical_partitions(self):
        p = partition_of_sizes((3, 4, 5))
        assert adjusted_rand(p, p) == pytest.approx(1.0)

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
    def test_merged_versus_split_constants(self, sizes, expected):
        three = partition_of_sizes(sizes)
        two = [three[0] | three[2], three[1]]
        assert adjusted_rand(two, three) == pytest.approx(expected, abs=1e-4)

    def test_hand_contingency(self):
        # pair counts computed by hand for a tiny 2x2 overlap
        p = [frozenset({0, 1}), frozenset({2, 3})]
        q = [frozenset({0, 2}), frozenset({1, 3})]
        # all pair counts C(1,2)=0 -> index 0, expectation (2*2)/6 -> ARI < 0
        assert adjusted_rand(p, q) == pytest.approx((0 - 4 / 6) / (2 - 4 / 6))

    @given(st.integers(0, 500))
    def test_symmetry_and_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        labels_p = rng.integers(0, 3, 12)
        labels_q = rng.integers(0, 4, 12)
        p = [frozenset(np.flatnonzero(labels_p == g)) for g in range(3) if np.any(labels_p == g)]
        q = [frozenset(np.flatnonzero(labels_q == g)) for g in range(4) if np.any(labels_q == g)]
        assert adjusted_rand(p, q) == pytest.approx(adjusted_rand(q, p))
        assert adjusted_rand(p, list(reversed(q))) == pytest.approx(adjusted_rand(p, q))

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ElementMismatchError):
            adjusted_rand([frozenset({0, 1})], [frozenset({0, 2})])


class TestIndexFunction:
    def test_dispatch(self):
        dist = pinned({("a", "b"): 0.1, ("a", "c"): 1.0, ("b", "c"): 1.0})
        groups = [{"a", "b"}, {"c"}]
        assert index_function("silhouette")(groups, dist) == pytest.approx(0.6)
        assert index_function("dunn-I1-J1")(groups, dist) == pytest.approx(10.0)
        # each name gives the value of the call it names, on groups where
        # every inter distance and every intra spread differs
        rng = np.random.default_rng(3)
        ids = range(9)
        dist = pinned({(i, j): rng.uniform(0.1, 1) for i in ids for j in ids if i < j})
        groups = [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]
        direct = {"silhouette": silhouette(groups, dist)}
        for inter in DUNN_INTER:
            for intra in DUNN_INTRA:
                direct[f"dunn-{inter}-{intra}"] = dunn(groups, dist, inter, intra)
        assert list(INDEX_NAMES) == list(direct)
        assert len(set(direct.values())) == len(direct)
        for name in INDEX_NAMES:
            assert index_function(name)(groups, dist) == direct[name]


class TestArrayStoreMatchesPairStore:
    """The array-backed matrix and indices give the same floats, bit for bit,
    as the dict-of-pairs code they replaced."""

    @pytest.mark.parametrize("string_ids", [False, True])
    @given(st.integers(0, 10_000))
    def test_indices_and_values_identical(self, string_ids, seed):
        ids, entries, groups = random_case(seed, string_ids)
        matrix = SimilarityMatrix(entries, list(reversed(ids)))
        assert matrix.values() == reference_values(entries)
        assert matrix.mean_rho() == float(np.mean(reference_values(entries)))
        dist = distances_from_similarity(matrix)
        ref = ReferenceDistances({p: max(0.0, 1.0 - e.rho) for p, e in entries.items()})
        for shape in (list, set):
            parts = [shape(g) for g in groups]
            assert silhouette(parts, dist) == reference_silhouette(parts, ref)
            for inter in DUNN_INTER:
                for intra in DUNN_INTRA:
                    assert dunn(parts, dist, inter, intra) == reference_dunn(
                        parts, ref, inter, intra
                    )

    @pytest.mark.parametrize("string_ids", [False, True])
    @given(st.integers(0, 10_000))
    def test_large_groups_identical(self, string_ids, seed):
        ids, entries, groups = random_large_case(seed, string_ids)
        dist = distances_from_similarity(SimilarityMatrix(entries, ids))
        ref = ReferenceDistances({p: max(0.0, 1.0 - e.rho) for p, e in entries.items()})
        for shape in (list, set):
            parts = [shape(g) for g in groups]
            value = silhouette(parts, dist)
            assert value == loop_silhouette(parts, dist)
            assert value == reference_silhouette(parts, ref)

    def test_large_cases_cover_long_sums_and_ties(self):
        cases = [random_large_case(seed, False) for seed in range(40)]
        assert all(15 <= len(ids) <= 70 for ids, _, _ in cases)
        assert all(max(len(g) for g in groups) >= 9 for _, _, groups in cases)
        assert any(any(len(g) == 1 for g in groups) for _, _, groups in cases)
        assert any(
            len({e.rho for e in entries.values()}) < len(entries) for _, entries, _ in cases
        )

    def test_cases_cover_singletons_and_unsorted_groups(self):
        cases = [random_case(seed, False) for seed in range(40)]
        assert any(any(len(g) == 1 for g in groups) for _, _, groups in cases)
        assert any(any(g != sorted(g) for g in groups) for _, _, groups in cases)
