"""k-NN search against a quadratic brute-force oracle, enhanced-label case
logic against an independent vote enumeration, and weight-matrix algebra."""

import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cleanse.checks import brute_force_knn
from cleanse.data import PartialDataset
from cleanse.reweight import (
    _RERANK_ELEMENTS,
    NO_ENHANCEMENT,
    build_weight_matrix,
    enhanced_label,
    knn_search,
)


class TestKnnSearch:
    def test_three_points_on_a_line(self):
        X = np.array([[0.0], [1.0], [3.0]])
        nb = knn_search(X, k=1)
        assert [int(n.indices[0]) for n in nb] == [1, 0, 1]

    def test_duplicates_pick_each_other_at_distance_zero(self):
        X = np.array([[2.0, 2.0], [2.0, 2.0], [9.0, 9.0]])
        nb = knn_search(X, k=1)
        assert int(nb[0].indices[0]) == 1
        assert int(nb[1].indices[0]) == 0
        assert nb[0].distances[0] == 0.0
        assert nb[1].distances[0] == 0.0

    def test_tie_broken_by_lower_index(self):
        # points 1 and 2 are equidistant mirrors around point 0
        X = np.array([[0.0], [1.0], [-1.0], [5.0]])
        nb = knn_search(X, k=2)
        assert list(nb[0].indices) == [1, 2]

    @pytest.mark.parametrize("p,d,k", [(50, 2, 5), (30, 3, 7), (12, 5, 11)])
    def test_matches_bruteforce_oracle(self, p, d, k):
        rng = np.random.default_rng(p * 31 + d)
        X = rng.standard_normal((p, d))
        got = knn_search(X, k)
        want = brute_force_knn(X, k)
        for g, (w_idx, w_dist) in zip(got, want):
            np.testing.assert_array_equal(g.indices, w_idx)
            np.testing.assert_array_equal(g.distances, w_dist)

    def test_k_clamped_to_population(self, caplog):
        # the clamp is silent here; `cleanse train` reports it once per run
        X = np.random.default_rng(0).standard_normal((4, 2))
        with caplog.at_level(logging.DEBUG):
            nb = knn_search(X, k=10)
        assert all(len(n) == 3 for n in nb)
        assert caplog.records == []

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((200, 4))
        seq = knn_search(X, 6, threads=1)
        par = knn_search(X, 6, threads=8)
        for a, b in zip(seq, par):
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_gemm_path_matches_direct_differences(self):
        # 4200 points span several query blocks, beyond the small-p oracle
        # above; sampled rows are re-ranked by direct differences and must
        # match bit for bit.  The +1e4 offset costs a GEMM expansion of the
        # raw features about eight digits, so only an exact re-rank passes.
        p, d, k = 4200, 4, 5
        for offset in (0.0, 1e4):
            X = np.random.default_rng(42).standard_normal((p, d)) + offset
            got = knn_search(X, k, threads=1)
            for r in range(0, p, 37):
                diff = X - X[r]
                d2 = np.sum(diff * diff, axis=1)
                d2[r] = np.inf
                want = np.argsort(d2, kind="stable")[:k]
                assert got[r].indices.tobytes() == want.tobytes()
                assert got[r].distances.tobytes() == np.sqrt(d2[want]).tobytes()
            for a, b in zip(got, knn_search(X, k, threads=2)):
                assert a.indices.tobytes() == b.indices.tobytes()
                assert a.distances.tobytes() == b.distances.tobytes()

    def test_overflowing_features_match_oracle(self):
        # squared distances overflow to inf, so every point joins the band
        # and neighbours come in index order, never the query itself
        X = np.random.default_rng(5).standard_normal((40, 3)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            got = knn_search(X, 6)
            want = brute_force_knn(X, 6)
        for r, (g, (w_idx, w_dist)) in enumerate(zip(got, want)):
            assert np.all(np.isinf(g.distances))
            assert r not in g.indices
            np.testing.assert_array_equal(g.indices, w_idx)
            np.testing.assert_array_equal(g.distances, w_dist)

    def test_rerank_spanning_several_difference_blocks(self):
        # each row's band holds at least k points, so p * k band pairs exceed
        # one (pairs, d) difference block and the re-rank loop runs again
        p, d, k = 300, 784, 10
        assert p * k > _RERANK_ELEMENTS // d
        X = np.random.default_rng(21).standard_normal((p, d))
        got = knn_search(X, k)
        rows = range(0, p, 23)
        for r, (w_idx, w_dist) in zip(rows, brute_force_knn(X, k, rows=rows)):
            assert got[r].indices.tobytes() == w_idx.tobytes()
            assert got[r].distances.tobytes() == w_dist.tobytes()

    def test_threads_keep_callers_error_state(self):
        # pool threads start from numpy's default error state; the search
        # must run under the caller's, as the sequential path does
        X = np.random.default_rng(5).standard_normal((40, 3)) * 1e200
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="ignore"):
                par = knn_search(X, 3, threads=2)
                seq = knn_search(X, 3, threads=1)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        for a, b in zip(par, seq):
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.distances.tobytes() == b.distances.tobytes()

    def test_distances_nondecreasing(self):
        X = np.random.default_rng(4).standard_normal((40, 3))
        for n in knn_search(X, 9):
            assert np.all(np.diff(n.distances) >= 0.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            knn_search(np.zeros((1, 2)), 1)


def _mask(cand_lists, m):
    mask = np.zeros((len(cand_lists), m), dtype=bool)
    for row, labs in zip(mask, cand_lists):
        row[labs] = True
    return mask


def _dataset(cand_lists, m, feats=None):
    cands = _mask(cand_lists, m)
    if feats is None:
        feats = np.arange(len(cands), dtype=float).reshape(-1, 1)
    return PartialDataset(features=feats, candidates=cands, m=m)


def _neighbors(indices, distances):
    from cleanse.reweight import NeighborList

    return NeighborList(
        indices=np.asarray(indices, dtype=np.int64),
        distances=np.asarray(distances, dtype=np.float64),
    )


def oracle_vote(i, dataset, neighbors, vote_mode):
    """Independent enhanced-label reimplementation by direct case analysis."""

    def labels(row):
        return [j for j in range(dataset.m) if dataset.candidates[row, j]]

    ci = labels(i)
    if len(ci) == 1:
        return ci[0]
    for idx in neighbors.indices:
        cn = labels(int(idx))
        if len(cn) == 1 and cn[0] in ci:
            return cn[0]
    totals = {}
    for lab in ci:
        total = Fraction(0)
        best_dist = None
        for idx, dist in zip(neighbors.indices, neighbors.distances):
            cs = labels(int(idx))
            if lab in cs:
                total += Fraction(1, len(cs)) if vote_mode == "fractional" else 1
                if best_dist is None or dist < best_dist:
                    best_dist = float(dist)
        if total > 0:
            totals[lab] = (total, best_dist)
    if not totals:
        return NO_ENHANCEMENT
    return min(totals, key=lambda lab: (-totals[lab][0], totals[lab][1], lab))


def reference_enhanced_label(i, dataset, neighbors, vote_mode="fractional"):
    """The array-based enhanced_label that the list-based one replaced, kept
    verbatim as the reference it must match label for label."""
    ci = dataset.candidates[i]
    own = np.flatnonzero(ci)
    if own.size == 1:
        return int(own[0])
    cands = dataset.candidates[neighbors.indices]
    sizes = cands.sum(axis=1)
    hits = cands & ci
    clean_hits = np.flatnonzero((sizes == 1) & hits.any(axis=1))
    if clean_hits.size:
        return int(np.argmax(hits[clean_hits[0]]))
    if vote_mode == "multiset":
        w = np.ones_like(sizes)
    else:
        scale = math.lcm(*set(sizes.tolist()))
        if scale * len(sizes) < 2**63:
            w = scale // sizes
        else:
            w = np.array([scale // s for s in sizes.tolist()], dtype=object)
    votes = w @ hits
    labs = np.flatnonzero(votes)
    if labs.size == 0:
        return NO_ENHANCEMENT
    nearest = neighbors.distances[np.argmax(hits[:, labs], axis=0)]
    return min(zip((-votes[labs]).tolist(), nearest.tolist(), labs.tolist()))[2]


class TestEnhancedLabel:
    @pytest.mark.parametrize("vote_mode", ["fractional", "multiset"])
    def test_matches_reference_on_random_batches(self, vote_mode):
        # k-NN of grid points (many distance ties) over masks that mix clean
        # rows, small sets and, at large m, sets whose sizes have a big lcm
        rng = np.random.default_rng(31)
        cases = {"clean": 0, "partial": 0, "none": 0}
        for _ in range(60):
            m = int(rng.integers(2, 54))
            n = int(rng.integers(2, 41))
            k = int(rng.integers(1, 21))
            sizes = np.where(rng.random(n) < 0.3, 1, rng.integers(1, m + 1, size=n))
            cand_lists = [sorted(rng.permutation(m)[:size].tolist()) for size in sizes]
            ds = _dataset(cand_lists, m, feats=np.round(rng.standard_normal((n, 2))))
            for i, nb in enumerate(knn_search(ds.features, k)):
                got = enhanced_label(i, ds, nb, vote_mode)
                assert got == reference_enhanced_label(i, ds, nb, vote_mode)
                if got == NO_ENHANCEMENT:
                    cases["none"] += 1
                elif len(cand_lists[i]) > 1:
                    cases["partial"] += 1
                else:
                    cases["clean"] += 1
        assert min(cases.values()) > 0, cases

    def test_clean_sample_returns_sole_candidate(self):
        ds = _dataset([[4], [0, 4], [1]], m=5)
        nb = _neighbors([1, 2], [0.5, 1.0])
        assert enhanced_label(0, ds, nb) == 4

    def test_clean_sample_ignores_neighbors(self):
        ds = _dataset([[4], [0, 1], [2, 3]], m=5)
        for order in ([1, 2], [2, 1]):
            assert enhanced_label(0, ds, _neighbors(order, [0.1, 0.2])) == 4

    def test_clean_neighbor_with_matching_label_wins(self):
        ds = _dataset([[2, 5], [5], [2]], m=6)
        nb = _neighbors([1, 2], [0.3, 0.9])  # nearest clean neighbor has label 5
        assert enhanced_label(0, ds, nb) == 5

    def test_vote_example(self):
        # candidates {2,5}; neighbor sets {2}, {2,9}, {5,7,8}:
        # 2 collects 1 + 1/2 = 1.5 (the clean {2} short-circuits via case 2
        # anyway), 5 collects only 1/3
        ds = _dataset([[2, 5], [2], [2, 9], [5, 7, 8]], m=10)
        nb = _neighbors([1, 2, 3], [0.1, 0.2, 0.3])
        assert enhanced_label(0, ds, nb) == 2

    def test_vote_without_clean_neighbors(self):
        # purely case 3: fractional votes 2 -> 1/2 + 1/2 = 1, 5 -> 1/3
        ds = _dataset([[2, 5], [2, 9], [5, 7, 8], [2, 3]], m=10)
        nb = _neighbors([1, 2, 3], [0.1, 0.2, 0.3])
        assert enhanced_label(0, ds, nb) == 2

    def test_multiset_mode_counts_labels_plainly(self):
        # fractional: 1 -> 1/3, 2 -> 1/3+1/2 = 5/6 -> label 2
        # multiset:   1 -> 1, 2 -> 2 -> label 2
        ds = _dataset([[1, 2], [1, 2, 3], [2, 3]], m=4)
        nb = _neighbors([1, 2], [0.5, 1.5])
        assert enhanced_label(0, ds, nb, "fractional") == 2
        assert enhanced_label(0, ds, nb, "multiset") == 2

    def test_vote_modes_diverge_on_large_sets(self):
        # one small set votes 1, two five-label sets vote 2:
        # fractional 1 -> 1/2 beats 2 -> 2/5; multiset 2 -> 2 beats 1 -> 1
        ds = _dataset([[1, 2], [1, 3], [2, 3, 4, 5, 9], [2, 6, 7, 8, 9]], m=10)
        nb = _neighbors([1, 2, 3], [0.5, 1.0, 1.5])
        assert enhanced_label(0, ds, nb, "fractional") == 1
        assert enhanced_label(0, ds, nb, "multiset") == 2

    def test_no_intersection_returns_sentinel(self):
        ds = _dataset([[0, 1], [2, 3], [4, 5]], m=6)
        nb = _neighbors([1, 2], [0.5, 1.0])
        assert enhanced_label(0, ds, nb) == NO_ENHANCEMENT

    def test_tie_broken_by_distance_then_class(self):
        # labels 0 and 1 each get one full vote; 1's voter is nearer
        ds = _dataset([[0, 1], [1], [0]], m=2)
        nb = _neighbors([1, 2], [0.2, 0.7])
        # clean neighbors match case 2 here, so use non-clean voters instead
        ds = _dataset([[0, 1], [1, 2], [0, 3]], m=4)
        nb = _neighbors([1, 2], [0.2, 0.7])
        assert enhanced_label(0, ds, nb) == 1
        # equal votes at equal distance: lowest class index
        ds2 = _dataset([[0, 1], [0, 2], [1, 3]], m=4)
        nb2 = _neighbors([1, 2], [0.4, 0.4])
        assert enhanced_label(0, ds2, nb2) == 0

    @pytest.mark.parametrize("vote_mode", ["fractional", "multiset"])
    def test_matches_enumeration_oracle(self, vote_mode):
        rng = np.random.default_rng(19)
        for _ in range(300):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(3, 9))
            cand_lists = []
            for _ in range(n):
                size = int(rng.integers(1, m + 1))
                cand_lists.append(sorted(rng.permutation(m)[:size].tolist()))
            ds = _dataset(cand_lists, m)
            k = int(rng.integers(1, n))
            others = [j for j in range(1, n)]
            idx = rng.permutation(others)[:k]
            dists = np.sort(rng.random(k))
            nb = _neighbors(idx, dists)
            assert enhanced_label(0, ds, nb, vote_mode) == oracle_vote(0, ds, nb, vote_mode)

        # Partial neighbours whose set sizes are the primes 2..53: the
        # common vote denominator exceeds int64.
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        assert math.lcm(*primes) > 2**63
        m = 53
        for _ in range(20):
            cand_lists = [sorted(rng.permutation(m)[:5].tolist())]
            cand_lists += [sorted(rng.permutation(m)[:p].tolist()) for p in primes]
            ds = _dataset(cand_lists, m)
            nb = _neighbors(rng.permutation(np.arange(1, 17)), np.sort(rng.random(16)))
            assert enhanced_label(0, ds, nb, vote_mode) == oracle_vote(0, ds, nb, vote_mode)

    def test_empty_neighbor_list_rejected_for_partial(self):
        ds = _dataset([[0, 1], [1]], m=2)
        with pytest.raises(ValueError):
            enhanced_label(0, ds, _neighbors([], []))


class TestWeightMatrix:
    def test_enhanced_row_example(self):
        cands = _mask([[1, 3, 7]], 10)
        weights = build_weight_matrix(cands, [3], temperature=3.0)
        want = np.zeros(10)
        want[[1, 7]] = 0.2
        want[3] = 0.6
        np.testing.assert_allclose(weights[0], want, atol=1e-15)

    def test_clean_sample_is_one_hot(self):
        cands = _mask([[6]], 10)
        for temp in (1.0, 3.0, 10.0):
            weights = build_weight_matrix(cands, [6], temperature=temp)
            want = np.zeros(10)
            want[6] = 1.0
            np.testing.assert_array_equal(weights[0], want)

    def test_temperature_one_is_uniform_over_candidates(self):
        cands = _mask([[0, 2, 5]], 6)
        for enhanced in (0, 2, 5, NO_ENHANCEMENT):
            weights = build_weight_matrix(cands, [enhanced], temperature=1.0)
            want = np.zeros(6)
            want[[0, 2, 5]] = 1.0 / 3.0
            np.testing.assert_array_equal(weights[0], want)

    def test_sentinel_falls_back_to_uniform(self):
        cands = _mask([[1, 4]], 5)
        weights = build_weight_matrix(cands, [NO_ENHANCEMENT], temperature=4.0)
        want = np.zeros(5)
        want[[1, 4]] = 0.5
        np.testing.assert_array_equal(weights[0], want)

    def test_support_equals_candidates_and_rows_stochastic(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, 12))
            cand_lists = []
            enhanced = []
            for _ in range(n):
                size = int(rng.integers(1, m + 1))
                labs = sorted(rng.permutation(m)[:size].tolist())
                cand_lists.append(labs)
                enhanced.append(labs[int(rng.integers(0, size))])
            weights = build_weight_matrix(_mask(cand_lists, m), enhanced, temperature=3.0)
            assert weights.dtype == np.float64 and weights.shape == (n, m)
            for i, labs in enumerate(cand_lists):
                on = weights[i] > 0
                np.testing.assert_array_equal(np.flatnonzero(on), np.array(labs))
                assert abs(weights[i].sum() - 1.0) < 1e-12

    def test_raising_temperature_is_monotone(self):
        cands = _mask([[1, 3, 7]], 10)
        prev_enh, prev_rest = 0.0, 1.0
        for temp in (1.0, 2.0, 3.0, 8.0):
            weights = build_weight_matrix(cands, [3], temperature=temp)
            enh = weights[0][3]
            rest = weights[0][1]
            if temp > 1.0:
                assert enh > prev_enh
                assert rest < prev_rest
            prev_enh, prev_rest = enh, rest

    def test_enhanced_outside_candidates_rejected(self):
        cands = _mask([[1, 3]], 5)
        for bad in (2, 5, -2):  # a non-candidate, past m, a negative index
            with pytest.raises(ValueError, match="outside candidate set of row 0"):
                build_weight_matrix(cands, [bad], temperature=2.0)

    def test_temperature_below_one_rejected(self):
        cands = _mask([[1, 3]], 5)
        with pytest.raises(ValueError):
            build_weight_matrix(cands, [3], temperature=0.5)
