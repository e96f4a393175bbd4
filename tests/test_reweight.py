"""k-NN search against a quadratic brute-force oracle, enhanced-label case
logic against an independent vote enumeration, and weight-matrix algebra."""

import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import cleanse
from cleanse import reweight
from cleanse.checks import brute_force_knn, oracle_vote
from cleanse.data import PartialDataset
from cleanse.reweight import (
    _RERANK_ELEMENTS,
    NO_ENHANCEMENT,
    NeighborList,
    _block_rows,
    _pair_distances,
    build_weight_matrix,
    enhanced_label,
    enhanced_labels,
    knn_search,
)


class TestKnnSearch:
    def test_three_points_on_a_line(self):
        X = np.array([[0.0], [1.0], [3.0]])
        nb = knn_search(X, k=1)
        assert nb.indices.tolist() == [[1], [0], [1]]

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
        np.testing.assert_array_equal(got.indices, [w_idx for w_idx, _ in want])
        np.testing.assert_array_equal(got.distances, [w_dist for _, w_dist in want])

    def test_k_clamped_to_population(self, caplog):
        # the clamp is silent here; `cleanse train` reports it once per run
        X = np.random.default_rng(0).standard_normal((4, 2))
        with caplog.at_level(logging.DEBUG):
            nb = knn_search(X, k=10)
        assert nb.indices.shape == nb.distances.shape == (4, 3)
        assert caplog.records == []

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((200, 4))
        seq = knn_search(X, 6, threads=1)
        par = knn_search(X, 6, threads=8)
        np.testing.assert_array_equal(seq.indices, par.indices)
        np.testing.assert_array_equal(seq.distances, par.distances)

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
            par = knn_search(X, k, threads=2)
            assert got.indices.tobytes() == par.indices.tobytes()
            assert got.distances.tobytes() == par.distances.tobytes()

    def test_overflowing_features_match_oracle(self):
        # squared distances overflow to inf, so every point joins the band
        # and neighbours come in index order, never the query itself
        X = np.random.default_rng(5).standard_normal((40, 3)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            got = knn_search(X, 6)
            want = brute_force_knn(X, 6)
        assert np.all(np.isinf(got.distances))
        for r, (w_idx, w_dist) in enumerate(want):
            assert r not in got.indices[r]
            np.testing.assert_array_equal(got.indices[r], w_idx)
            np.testing.assert_array_equal(got.distances[r], w_dist)

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
        assert par.indices.tobytes() == seq.indices.tobytes()
        assert par.distances.tobytes() == seq.distances.tobytes()

    def test_arrays_equal_for_threads_1_and_2(self):
        # an integer grid (many tied distances) over several query blocks
        X = np.round(2.0 * np.random.default_rng(12).standard_normal((1500, 3)))
        self._assert_threads_1_and_2_equal(X, 7)

    def test_arrays_equal_for_threads_1_and_2_at_desk_shape(self):
        X = np.random.default_rng(12).standard_normal((600, 2))
        self._assert_threads_1_and_2_equal(X, 20)

    @staticmethod
    def _assert_threads_1_and_2_equal(X, k):
        p = len(X)
        assert math.ceil(p / _block_rows(p)) >= 3  # so the two threads share blocks
        seq = knn_search(X, k, threads=1)
        par = knn_search(X, k, threads=2)
        assert seq.indices.shape == seq.distances.shape == (p, k)
        assert (seq.indices.dtype, seq.distances.dtype) == (np.int64, np.float64)
        assert seq.indices.tobytes() == par.indices.tobytes()
        assert seq.distances.tobytes() == par.distances.tobytes()

    @pytest.mark.parametrize("p", [2, 64, 600, 1500, 2400, 5120, 7812, 7813, 10**4, 10**6,
                                   2 * 10**6])
    def test_estimate_blocks_stay_within_a_million_elements(self, p):
        # a block holds one row at least, so only p > 10^6 exceeds the bound
        rows = _block_rows(p)
        assert rows >= 1 and rows * p <= max(10**6, p)
        assert rows >= min(128, 10**6 // p)  # wide searches keep their GEMM rows
        assert rows <= 128  # and narrow ones do not grow past them

    def test_peak_traced_memory_at_desk_shape(self):
        # 600 points make five 128-row estimate blocks of 600 KiB; the estimate
        # and its partitioned copy are the only block-sized arrays alive at once
        X = np.random.default_rng(0).standard_normal((600, 2))
        tracemalloc.start()
        try:
            knn_search(X, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_one_thread_never_imports_the_thread_pool(self):
        # the pool and the logging it imports load only for threads > 1
        code = ("import sys, numpy as np, cleanse, cleanse.trainer\n"
                "pool = ('concurrent.futures', 'logging')\n"
                "cleanse.reweight.knn_search(np.eye(5), 2)\n"
                "print([name in sys.modules for name in pool])\n"
                "cleanse.reweight.knn_search(np.eye(5), 2, threads=2)\n"
                "print('concurrent.futures' in sys.modules)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cleanse.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines() == ["[False, False]", "True"]

    def test_rows_index(self):
        X = np.random.default_rng(13).standard_normal((9, 2))
        got = knn_search(X, 4)
        assert got.indices.shape == got.distances.shape == (9, 4)
        for r in range(9):
            row = got[r]
            assert isinstance(row, NeighborList) and row.indices.shape == (4,)
            assert row.indices.tobytes() == got.indices[r].tobytes()
            assert row.distances.tobytes() == got.distances[r].tobytes()
            assert r not in row.indices
        assert got[-1].indices.tobytes() == got.indices[8].tobytes()

    def test_matches_bruteforce_property(self):
        # seeded cases over one query block and several: features on a grid
        # of random resolution (many tied distances) with duplicated rows;
        # at the batch shape's d = 784 mirrored band pairs copy their
        # distances.  Indices and distance bits must equal the oracle's
        rng = np.random.default_rng(35)
        for case in range(36):
            p = int(rng.integers(2, 401))
            d = (1, 2, 784)[case % 3]
            k = int(rng.integers(1, 26))
            X = np.round(rng.standard_normal((p, d)) * rng.choice([1.0, 2.0, 8.0])) / 4.0
            copies = rng.integers(0, p, size=(2, p // 4))
            X[copies[0]] = X[copies[1]]
            got = knn_search(X, k)
            rows = range(p) if p <= 48 else np.sort(rng.choice(p, 48, replace=False)).tolist()
            for r, (w_idx, w_dist) in zip(rows, brute_force_knn(X, k, rows=rows)):
                assert got[r].indices.tobytes() == w_idx.tobytes(), (p, d, k, r)
                assert got[r].distances.tobytes() == w_dist.tobytes(), (p, d, k, r)

    @pytest.mark.parametrize("p, scale", [(64, 1.0), (200, 1.0), (40, 1e200)])
    @pytest.mark.parametrize("wide", [True, False], ids=["mirrors", "narrow"])
    def test_mirrored_pairs_are_differenced_once(self, monkeypatch, p, scale, wide):
        # k = p - 1 bands every other point, so every band is symmetric: from
        # _MIRROR_MIN_FEATURES on, a block of b rows differences its
        # b(b - 1)/2 pairs within the block once and its b(p - b) pairs
        # outside it; narrower features difference all b(p - 1).  Overflowing
        # features take the all-pairs band of the non-finite path
        d = reweight._MIRROR_MIN_FEATURES - (0 if wide else 1)
        X = np.random.default_rng(p).standard_normal((p, d)) * scale
        rows = []

        def counted(X, a, b):
            rows.append(len(a))
            return _pair_distances(X, a, b)

        monkeypatch.setattr(reweight, "_pair_distances", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            got = knn_search(X, p - 1)
            want = brute_force_knn(X, p - 1)
        block = _block_rows(p)
        sizes = [min(block, p - start) for start in range(0, p, block)]
        if wide:
            assert rows == [b * (b - 1) // 2 + b * (p - b) for b in sizes]
        else:
            assert rows == [b * (p - 1) for b in sizes]
        for r, (w_idx, w_dist) in enumerate(want):
            assert got[r].indices.tobytes() == w_idx.tobytes()
            assert got[r].distances.tobytes() == w_dist.tobytes()

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.float64(3.0), "3", None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            knn_search(np.zeros((5, 2)), k)

    def test_numpy_integer_k_accepted(self):
        X = np.random.default_rng(3).standard_normal((6, 2))
        assert knn_search(X, np.int64(2)).indices.tobytes() == knn_search(X, 2).indices.tobytes()

    @pytest.mark.parametrize("threads, message", [
        (0, "threads must be >= 1"), (-2, "threads must be >= 1"),
        (True, "threads must be an integer"), (2.5, "threads must be an integer"),
        (2.0, "threads must be an integer"), (None, "threads must be an integer")])
    def test_bad_threads_rejected(self, threads, message):
        with pytest.raises(ValueError, match=message):
            knn_search(np.zeros((5, 2)), 2, threads=threads)

    def test_numpy_integer_threads_accepted(self):
        X = np.random.default_rng(3).standard_normal((6, 2))
        got = knn_search(X, 2, threads=np.int64(2))
        assert got.indices.tobytes() == knn_search(X, 2).indices.tobytes()

    def test_distances_nondecreasing(self):
        X = np.random.default_rng(4).standard_normal((40, 3))
        assert np.all(np.diff(knn_search(X, 9).distances, axis=1) >= 0.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 2 instances"):
            knn_search(np.zeros((1, 2)), 1)
        with pytest.raises(ValueError, match="at least 1 feature column"):
            knn_search(np.zeros((5, 0)), 2)


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
    return NeighborList(
        indices=np.asarray(indices, dtype=np.int64),
        distances=np.asarray(distances, dtype=np.float64),
    )


def _random_batches(seed, count=60):
    """(cand_lists, dataset, k) batches: k-NN of grid points (many distance
    ties) over masks that mix clean rows, small sets and, at large m, sets
    whose sizes have a big lcm; k above n - 1 is clamped by the search."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 54))
        n = int(rng.integers(2, 41))
        k = int(rng.integers(1, 21))
        sizes = np.where(rng.random(n) < 0.3, 1, rng.integers(1, m + 1, size=n))
        cand_lists = [sorted(rng.permutation(m)[:size].tolist()) for size in sizes]
        yield cand_lists, _dataset(cand_lists, m, feats=np.round(rng.standard_normal((n, 2)))), k


class TestEnhancedLabel:
    def test_matches_reference_on_random_batches(self):
        cases = {"clean": 0, "partial": 0, "none": 0}
        for cand_lists, ds, k in _random_batches(31):
            nbs = knn_search(ds.features, k)
            for i in range(ds.n):
                nb = nbs[i]
                got = enhanced_label(i, ds, nb)
                assert got == oracle_vote(ds.candidates, i, nb.indices, nb.distances)
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

    def test_votes_sum_over_overlapping_sets(self):
        # 1 -> 1/3, 2 -> 1/3 + 1/2 = 5/6 -> label 2
        ds = _dataset([[1, 2], [1, 2, 3], [2, 3]], m=4)
        nb = _neighbors([1, 2], [0.5, 1.5])
        assert enhanced_label(0, ds, nb) == 2

    def test_large_sets_vote_thin(self):
        # one small set votes 1, two five-label sets vote 2: 1 -> 1/2 beats
        # 2 -> 2/5, where a plain count of voters would pick 2
        ds = _dataset([[1, 2], [1, 3], [2, 3, 4, 5, 9], [2, 6, 7, 8, 9]], m=10)
        nb = _neighbors([1, 2, 3], [0.5, 1.0, 1.5])
        assert enhanced_label(0, ds, nb) == 1

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

    def test_matches_enumeration_oracle(self):
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
            want = oracle_vote(ds.candidates, 0, nb.indices, nb.distances)
            assert enhanced_label(0, ds, nb) == want

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
            want = oracle_vote(ds.candidates, 0, nb.indices, nb.distances)
            assert enhanced_label(0, ds, nb) == want

    def test_empty_neighbor_list_rejected_for_partial(self):
        ds = _dataset([[0, 1], [1]], m=2)
        with pytest.raises(ValueError):
            enhanced_label(0, ds, _neighbors([], []))


class TestEnhancedLabels:
    def test_matches_reference_and_oracle_row_for_row(self):
        for _, ds, k in _random_batches(33):
            nb = knn_search(ds.features, k)
            cands = ds.candidates
            got = enhanced_labels(cands, cands[nb.indices], nb.distances)
            assert got.dtype == np.int64 and got.shape == (ds.n,)
            for i, label in enumerate(got.tolist()):
                assert label == oracle_vote(cands, i, nb.indices[i], nb.distances[i])

    def test_python_int_votes_agree_with_int64(self, monkeypatch):
        batches = []
        for _, ds, k in _random_batches(34):
            nb = knn_search(ds.features, k)
            sizes = ds.candidates[nb.indices].sum(axis=2)
            if nb.indices.shape[1] * math.lcm(*set(sizes.flat)) < 2**63:
                batches.append((ds.candidates, ds.candidates[nb.indices], nb.distances))
        assert len(batches) > 30
        int64 = [enhanced_labels(*batch) for batch in batches]
        monkeypatch.setattr(reweight, "_INT64_VOTE_LIMIT", 0)
        for batch, want in zip(batches, int64):
            assert enhanced_labels(*batch).tobytes() == want.tobytes()

    def test_nan_distances_rank_last_and_stay_in_the_candidate_set(self):
        # knn_search gives row 3 of these features nan distances to both of
        # its neighbours; the tie-break must still pick one of its candidates
        nb = knn_search(np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0], [np.nan, 2.0]]), 2)
        assert np.isnan(nb[3].distances).all()
        own = np.array([[False, True, True]])
        masks = np.array([[[False, True, True], [False, True, True]]])
        assert enhanced_labels(own, masks, nb[3].distances[None]).tolist() == [1]
        # a tied label at a number beats one at nan, even at inf
        masks = np.array([[[True, False, True], [True, True, False]]])
        for dist, want in (([np.nan, 2.0], 1), ([np.nan, np.inf], 1), ([1.0, np.nan], 2)):
            got = enhanced_labels(own, masks, np.array([dist]))
            assert got.tolist() == [want]

    def test_shapes_checked(self):
        own = np.array([[True, True], [True, False]])
        masks = np.ones((2, 1, 2), dtype=bool)
        for args in ((own[:1], masks, np.zeros((2, 1))), (own, masks, np.zeros((2, 2))),
                     (own, masks[:, 0], np.zeros((2, 1)))):
            with pytest.raises(ValueError, match="are not"):
                enhanced_labels(*args)


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

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, temperature):
        # nan would make every row nan and inf the enhanced label's weight nan
        cands = _mask([[1, 3]], 5)
        with pytest.raises(ValueError, match="temperature must be finite"):
            build_weight_matrix(cands, [3], temperature=temperature)
