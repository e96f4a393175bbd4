"""Dataset model, synthetic candidate generation, splitting, file format."""

import math
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest

import cleanse.data as data_module
from cleanse.data import (
    _READ_ROWS,
    CACHE_SUFFIX,
    PartialDataset,
    PllFormatError,
    compute_stats,
    gaussian_clusters,
    generate_synthetic,
    read_pll_file,
    split,
    write_pll_file,
)


class TestCandidateSet:
    """A candidate set is one row of the (n, m) bool mask."""

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "label_at_m.pll"
        path.write_text("#pll n=1 d=1 m=4\n?;4;1.0\n")
        with pytest.raises(ValueError, match="outside"):
            read_pll_file(path)
        row = np.zeros((1, 6), dtype=bool)
        row[0, 5] = True
        with pytest.raises(ValueError):
            PartialDataset(np.zeros((1, 1)), row, 4)


class TestGenerator:
    def test_q_zero_all_clean(self):
        labels = np.random.default_rng(0).integers(0, 5, size=200)
        cands = generate_synthetic(labels, 5, q=0.0, seed=1)
        np.testing.assert_array_equal(cands, np.eye(5, dtype=bool)[labels])

    def test_q_one_all_full(self):
        labels = np.random.default_rng(0).integers(0, 10, size=100)
        cands = generate_synthetic(labels, 10, q=1.0, seed=1)
        assert cands.all()

    def test_truth_always_member(self):
        rng = np.random.default_rng(2)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            labels = rng.integers(0, 6, size=10_000)
            cands = generate_synthetic(labels, 6, q=q, seed=int(rng.integers(1 << 30)))
            assert cands[np.arange(len(labels)), labels].all()

    def test_per_false_label_frequency_within_3_sigma(self):
        n, m, q = 20_000, 5, 0.3
        labels = np.random.default_rng(3).integers(0, m, size=n)
        cands = generate_synthetic(labels, m, q=q, seed=4)
        false = np.arange(m) != labels[:, None]
        hits = (cands & false).sum(axis=0)
        trials = false.sum(axis=0)
        for j in range(m):
            sigma = math.sqrt(q * (1 - q) / trials[j])
            assert abs(hits[j] / trials[j] - q) <= 3 * sigma

    def test_clean_rate_converges(self):
        n, m, q = 70_000, 10, 0.5
        labels = np.random.default_rng(5).integers(0, m, size=n)
        cands = generate_synthetic(labels, m, q=q, seed=6)
        ds = PartialDataset(np.zeros((n, 1)), cands, m, hidden_truth=labels)
        stats = compute_stats(ds)
        # analytic expectations of the binomial model
        assert abs(stats.avg_candidates - (1 + (m - 1) * q)) <= 0.02
        assert abs(stats.clean_rate - (1 - q) ** (m - 1)) <= 0.0005

    def test_deterministic_given_seed(self):
        labels = np.arange(50) % 4
        a = generate_synthetic(labels, 4, q=0.5, seed=9)
        b = generate_synthetic(labels, 4, q=0.5, seed=9)
        np.testing.assert_array_equal(a, b)
        c = generate_synthetic(labels, 4, q=0.5, seed=10)
        assert not np.array_equal(a, c)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_synthetic([0], 1, q=0.5, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic([0], 3, q=1.5, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic([3], 3, q=0.5, seed=0)


class TestStatsAndSplit:
    def test_all_clean_stats(self):
        ds = PartialDataset(np.zeros((9, 2)), np.eye(3, dtype=bool)[np.arange(9) % 3], 3)
        s = compute_stats(ds)
        assert s.avg_candidates == 1.0
        assert s.clean_rate == 1.0
        assert (s.n, s.d, s.m) == (9, 2, 3)

    def test_mixed_stats(self):
        cands = np.array([[True, False, False], [True, True, True]])
        ds = PartialDataset(np.zeros((2, 1)), cands, 3)
        s = compute_stats(ds)
        assert s.avg_candidates == 2.0
        assert s.clean_rate == 0.5

    def test_split_sizes_small(self):
        ds = _synthetic_dataset(10, seed=1)
        train, test = split(ds, 0.1, seed=2)
        assert (train.n, test.n) == (9, 1)

    def test_split_sizes_take_ceil_on_test(self):
        ds = _synthetic_dataset(1122, seed=3)
        train, test = split(ds, 0.1, seed=4)
        assert test.n == math.ceil(1122 * 0.1)
        assert (train.n, test.n) == (1009, 113)

    def test_split_deterministic_and_disjoint(self):
        ds = _synthetic_dataset(40, seed=5)
        t1, s1 = split(ds, 0.25, seed=6)
        t2, s2 = split(ds, 0.25, seed=6)
        np.testing.assert_array_equal(t1.features, t2.features)
        np.testing.assert_array_equal(s1.features, s2.features)
        # each original row lands in exactly one side
        combined = np.vstack([t1.features, s1.features])
        assert combined.shape == ds.features.shape
        orig = {tuple(row) for row in ds.features}
        assert {tuple(row) for row in combined} == orig

    def test_split_keeps_truth_on_both_sides(self):
        ds = _synthetic_dataset(20, seed=7)
        train, test = split(ds, 0.3, seed=8)
        assert train.hidden_truth is not None
        assert test.hidden_truth is not None

    def test_split_fraction_validated(self):
        ds = _synthetic_dataset(10, seed=9)
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                split(ds, bad, seed=0)

    def test_stats_empty_rejected(self):
        ds = PartialDataset(np.zeros((0, 2)), np.zeros((0, 3), dtype=bool), 3)
        with pytest.raises(ValueError):
            compute_stats(ds)


class TestDatasetModel:
    def test_features_read_only(self):
        ds = _synthetic_dataset(5, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_candidates_copied_and_read_only(self):
        mask = np.array([[True, False], [False, True]])
        ds = PartialDataset(np.zeros((2, 1)), mask, 2)
        mask[0] = [False, True]
        assert ds.candidates[0].tolist() == [True, False]
        with pytest.raises(ValueError):
            ds.candidates[0, 1] = True

    def test_strip_truth(self):
        ds = _synthetic_dataset(5, seed=0)
        stripped = ds.strip_truth()
        assert stripped.hidden_truth is None
        np.testing.assert_array_equal(stripped.candidates, ds.candidates)
        assert stripped.strip_truth() is stripped
        assert ds.hidden_truth is not None
        # a view: no copy of the validated arrays, which stay read-only
        assert np.shares_memory(stripped.features, ds.features)
        assert np.shares_memory(stripped.candidates, ds.candidates)
        for arr in (stripped.features, stripped.candidates, ds.features, ds.candidates):
            assert not arr.flags.writeable

    def test_shape_mismatch_rejected(self):
        cands = np.array([[True, False]])
        with pytest.raises(ValueError):
            PartialDataset(np.zeros((2, 2)), cands, 2)
        with pytest.raises(ValueError):
            PartialDataset(np.zeros((1, 2)), cands, 2, hidden_truth=np.array([0, 1]))
        with pytest.raises(ValueError, match="shape"):
            PartialDataset(np.zeros((1, 2)), cands, 3)
        with pytest.raises(ValueError, match="shape"):  # a label at index m
            PartialDataset(np.zeros((1, 2)), np.array([[False, False, True]]), 2)

    def test_empty_candidate_row_rejected(self):
        cands = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="at least one candidate"):
            PartialDataset(np.zeros((2, 1)), cands, 2)

    @pytest.mark.parametrize(
        "cands",
        [
            np.array([[1, 0], [0, 1]]),  # 0/1 integers, not bool
            np.array([True, True]),  # 1-D
            np.ones((2, 2, 1), dtype=bool),
        ],
    )
    def test_mask_must_be_2d_bool(self, cands):
        with pytest.raises(ValueError):
            PartialDataset(np.zeros((2, 1)), cands, 2)

    def test_subset(self):
        ds = _synthetic_dataset(10, seed=1)
        sub = ds.subset([3, 1, 7])
        np.testing.assert_array_equal(sub.features, ds.features[[3, 1, 7]])
        np.testing.assert_array_equal(sub.candidates, ds.candidates[[3, 1, 7]])
        np.testing.assert_array_equal(sub.hidden_truth, ds.hidden_truth[[3, 1, 7]])

    def test_subset_owns_fresh_read_only_arrays(self):
        ds = _synthetic_dataset(10, seed=1)
        sub = ds.subset([3, 1, 7])
        for mine, parent in zip((sub.features, sub.candidates, sub.hidden_truth),
                                (ds.features, ds.candidates, ds.hidden_truth)):
            assert not np.shares_memory(mine, parent)
            assert not mine.flags.writeable

    def test_adopted_arrays_are_validated_not_copied(self):
        feats, mask, truth = np.zeros((2, 1)), np.array([[True, False], [False, True]]), np.array([0, 1])
        ds = PartialDataset._adopt(feats, mask, 2, truth)
        assert ds.features is feats and ds.candidates is mask and ds.hidden_truth is truth
        assert not (feats.flags.writeable or mask.flags.writeable or truth.flags.writeable)
        with pytest.raises(ValueError, match="at least one candidate"):
            PartialDataset._adopt(np.zeros((2, 1)), np.array([[True, False], [False, False]]), 2)
        with pytest.raises(ValueError, match="outside"):
            PartialDataset._adopt(np.zeros((2, 1)), mask.copy(), 2, np.array([0, 2]))


class TestGaussianClusters:
    def test_shapes_and_determinism(self):
        f1, l1 = gaussian_clusters(100, 3, seed=1)
        f2, l2 = gaussian_clusters(100, 3, seed=1)
        assert f1.shape == (100, 2)
        assert l1.shape == (100,)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(l1, l2)

    def test_clusters_are_separable(self):
        feats, labels = gaussian_clusters(600, 3, seed=2)
        # nearest class center recovers nearly every label
        angles = 2 * np.pi * np.arange(3) / 3
        centers = 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        d = np.linalg.norm(feats[:, None, :] - centers[None], axis=2)
        assert np.mean(np.argmin(d, axis=1) == labels) > 0.995


class TestPllFile:
    def test_documented_line_forms(self, tmp_path):
        path = tmp_path / "t.pll"
        path.write_text("#pll n=2 d=2 m=8\n3;3,7;0.5 1.25\n2;2;1.0 -2.0\n")
        ds = read_pll_file(path)
        assert ds.hidden_truth.tolist() == [3, 2]
        assert np.flatnonzero(ds.candidates[0]).tolist() == [3, 7]
        assert np.flatnonzero(ds.candidates[1]).tolist() == [2]
        np.testing.assert_array_equal(ds.features[0], [0.5, 1.25])

    def test_question_mark_means_no_truth(self, tmp_path):
        path = tmp_path / "t.pll"
        path.write_text("#pll n=1 d=1 m=4\n?;2;1.0\n")
        ds = read_pll_file(path)
        assert ds.hidden_truth is None
        assert ds.candidates.tolist() == [[False, False, True, False]]

    def test_round_trip_identity(self, tmp_path):
        ds = _synthetic_dataset(200, seed=11, d=3, q=0.5)
        path = tmp_path / "rt.pll"
        write_pll_file(ds, path)
        back = read_pll_file(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.candidates, ds.candidates)
        np.testing.assert_array_equal(back.hidden_truth, ds.hidden_truth)
        assert compute_stats(back) == compute_stats(ds)
        for arr in (back.features, back.candidates, back.hidden_truth):
            assert not arr.flags.writeable

    def test_round_trip_without_truth(self, tmp_path):
        ds = _synthetic_dataset(50, seed=12).strip_truth()
        path = tmp_path / "rt.pll"
        write_pll_file(ds, path)
        back = read_pll_file(path)
        assert back.hidden_truth is None
        np.testing.assert_array_equal(back.candidates, ds.candidates)

    def test_double_round_trip_is_byte_identical(self, tmp_path):
        ds = _synthetic_dataset(100, seed=13, d=2, q=0.7)
        p1, p2 = tmp_path / "a.pll", tmp_path / "b.pll"
        write_pll_file(ds, p1)
        write_pll_file(read_pll_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mnist_shaped_round_trip(self, tmp_path):
        # image-export shape: 784 features, 10 classes, q=0.5 candidates
        ds = _synthetic_dataset(300, seed=14, d=784, q=0.5, m=10)
        path = tmp_path / "mnist_shaped.pll"
        write_pll_file(ds, path)
        back = read_pll_file(path)
        np.testing.assert_array_equal(back.candidates, ds.candidates)
        np.testing.assert_array_equal(back.features, ds.features)

    @pytest.mark.parametrize(
        "features, truth, message",
        [(np.zeros((2, 2)), [0, 1], "row 1: truth label 1 is not among its candidates"),
         (np.array([[0.0, 1.0], [2.0, np.nan]]), [0, 0],
          "row 1, column 1: non-finite feature value nan"),
         (np.zeros((2, 0)), [0, 0], "a PLL file needs d >= 1 and m >= 1, got d=0, m=2")],
        ids=["truth-not-candidate", "nan-feature", "no-features"],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, features, truth, message):
        cands = np.array([[True, False], [True, False]])
        ds = PartialDataset(features, cands, 2, hidden_truth=np.array(truth))
        path = tmp_path / "bad.pll"
        with pytest.raises(ValueError, match=message):
            write_pll_file(ds, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("#pll n=1 d=1 m=3\n0;0\n", "expected"),
            ("#pll n=1 d=1 m=3\n0;0,5;1.0\n", "outside"),
            ("#pll n=1 d=1 m=3\n0;;1.0\n", "empty candidate"),
            ("#pll n=1 d=1 m=3\n0;1;1.0\n", "not among candidates"),
            ("#pll n=1 d=1 m=3\n0;1,0;1.0 \n", "strictly increasing"),
            ("#pll n=1 d=2 m=3\n0;0;1.0\n", "expected 2 features"),
            ("#pll n=2 d=1 m=3\n0;0;1.0\n", "file ends"),
            ("#pll n=1 d=1 m=3\n0;0;1.0\nextra;;\n", "trailing"),
            ("#pll n=1 d=1 m=3\n5;0;1.0\n", "outside"),
            ("#pll n=1 d=1 m=3\nx;0;1.0\n", "bad truth"),
            ("#pll n=2 d=1 m=3\n0;0;1.0\n?;1;1.0\n", "mix"),
            ("#wrong header\n", "header"),
            # str.isdigit passes both; int() refuses the first and reads the second as 3
            ("#pll n=\u00b2 d=1 m=2\n0;0;1.0\n", "^line 1: bad header field 'n=\u00b2'$"),
            ("#pll n=1 d=1 m=\u0663\n0;0;1.0\n", "^line 1: bad header field 'm=\u0663'$"),
        ],
    )
    def test_malformed_inputs_rejected(self, tmp_path, body, fragment):
        path = tmp_path / "bad.pll"
        path.write_text(body, encoding="utf-8")
        errors = []
        for _ in range(2):  # a failed read caches nothing, so it fails alike again
            with pytest.raises(PllFormatError, match=fragment) as caught:
                read_pll_file(path)
            errors.append((str(caught.value), caught.value.line))
        assert errors[0] == errors[1]
        assert os.listdir(tmp_path) == ["bad.pll"]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, token):
        path = tmp_path / "bad.pll"
        path.write_text(f"#pll n=2 d=2 m=3\n0;0;1.0 2.0\n1;1;0.5 {token}\n")
        with pytest.raises(PllFormatError, match="line 3: non-finite feature value"):
            read_pll_file(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.pll"
        path.write_text("#pll n=2 d=1 m=3\n0;0;1.0\n0;0 1.0\n")
        with pytest.raises(PllFormatError, match="line 3"):
            read_pll_file(path)

    def test_random_bit_patterns_round_trip_bitwise(self, tmp_path):
        # every exponent, subnormals and signed zeros, over several blocks
        n, d = 2 * _READ_ROWS + 7, 5
        rng = np.random.default_rng(15)
        feats = rng.integers(0, 1 << 64, size=(n, d), dtype=np.uint64).view(np.float64)
        feats[~np.isfinite(feats)] = -0.0
        fi = np.finfo(np.float64)
        feats[0] = [fi.max, -fi.max, fi.smallest_subnormal, -fi.smallest_subnormal, -0.0]
        ds = PartialDataset(feats, np.ones((n, 3), dtype=bool), 3)
        path = tmp_path / "bits.pll"
        write_pll_file(ds, path)
        back = read_pll_file(path)
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.candidates, ds.candidates)

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "-2_5.0_1"])
    def test_tokens_only_float_accepts_read_as_float_reads_them(self, tmp_path, token):
        path = tmp_path / "t.pll"
        path.write_text(f"#pll n=2 d=2 m=3\n?;0;0.5 1.5\n?;1;{token} 2.0\n", encoding="utf-8")
        ds = read_pll_file(path)
        assert ds.features.tolist() == [[0.5, 1.5], [float(token), 2.0]]
        assert ds.hidden_truth is None

    def test_first_bad_line_in_block_is_reported(self, tmp_path):
        # a bad feature on line 3 and a bad truth on line 5, in one block
        path = tmp_path / "bad.pll"
        path.write_text("#pll n=4 d=1 m=3\n0;0;1.0\n0;0;x\n0;0;1.0\nx;0;1.0\n")
        with pytest.raises(PllFormatError, match="^line 3: bad feature value$"):
            read_pll_file(path)

    def test_error_in_second_block_names_its_line(self, tmp_path):
        n = _READ_ROWS + 3
        rows = ["0;0;1.0"] * n
        rows[_READ_ROWS + 1] = "0;0;1.0 2.0"
        path = tmp_path / "bad.pll"
        path.write_text(f"#pll n={n} d=1 m=3\n" + "\n".join(rows) + "\n")
        with pytest.raises(PllFormatError, match=f"^line {_READ_ROWS + 3}: expected 1 features"):
            read_pll_file(path)

    def test_file_ending_at_a_block_boundary(self, tmp_path):
        path = tmp_path / "short.pll"
        path.write_text(f"#pll n={_READ_ROWS + 1} d=1 m=3\n" + "0;0;1.0\n" * _READ_ROWS)
        with pytest.raises(
            PllFormatError,
            match=f"^line {_READ_ROWS + 2}: expected {_READ_ROWS + 1} instances, "
            f"file ends after {_READ_ROWS}$",
        ):
            read_pll_file(path)

    @pytest.mark.parametrize("field", ["", " ", "\t \x1c"])
    def test_blank_feature_field_reports_zero_features(self, tmp_path, field):
        path = tmp_path / "bad.pll"
        path.write_text(f"#pll n=1 d=2 m=3\n0;0;{field}\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on input without data
            with pytest.raises(PllFormatError, match="^line 2: expected 2 features, got 0$"):
                read_pll_file(path)


def _bits(ds):
    """A dataset's bits, and its feature layout, which BLAS results can depend on."""
    truth = None if ds.hidden_truth is None else ds.hidden_truth.tobytes()
    return (ds.features.shape, ds.features.flags.c_contiguous, ds.features.tobytes(),
            ds.candidates.tobytes(), ds.m, truth)


def _cached(path):
    return path.with_name(path.name + CACHE_SUFFIX)


class TestParseCache:
    """The sidecar beside a PLL file caches its parse, keyed on its bytes."""

    def _write(self, tmp_path, ds=None):
        path = tmp_path / "data.pll"
        write_pll_file(_synthetic_dataset(40, seed=21, d=3) if ds is None else ds, path)
        return path

    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "question-marks"])
    def test_hit_returns_the_parse_read_only(self, tmp_path, monkeypatch, truth):
        ds = _synthetic_dataset(2 * _READ_ROWS + 5, seed=22, d=4)
        path = self._write(tmp_path, ds if truth else ds.strip_truth())
        parsed = _bits(read_pll_file(path))
        assert sorted(os.listdir(tmp_path)) == ["data.pll", "data.pll" + CACHE_SUFFIX]

        def no_parse(path):
            raise AssertionError("a warm read parsed the text")

        monkeypatch.setattr(data_module, "_parse_pll", no_parse)
        warm = read_pll_file(path)
        assert _bits(warm) == parsed
        assert (warm.hidden_truth is None) == (not truth)
        for arr in (warm.features, warm.candidates, warm.hidden_truth):
            assert arr is None or not arr.flags.writeable

    def test_edited_file_misses_and_refreshes_the_sidecar(self, tmp_path):
        path = self._write(tmp_path)
        read_pll_file(path)
        text = path.read_text()
        path.write_text(text.replace("0.", "1.", 1))  # same size, new value
        assert len(path.read_text()) == len(text)
        assert _bits(read_pll_file(path)) == _bits(data_module._parse_pll(path))
        with np.load(_cached(path)) as npz:
            assert npz["key"].tolist().endswith(data_module._sha256(path))

    @pytest.mark.parametrize(
        "damage",
        [lambda blob: blob[: len(blob) // 2],
         lambda blob: blob[: len(blob) // 2] + bytes([blob[len(blob) // 2] ^ 1])
         + blob[len(blob) // 2 + 1 :],
         lambda blob: b"",
         lambda blob: b"\x93NUMPY not an archive"],
        ids=["truncated", "bit-flip", "empty", "not-a-zip"],
    )
    def test_damaged_sidecar_is_a_miss(self, tmp_path, damage):
        path = self._write(tmp_path)
        want = _bits(read_pll_file(path))
        _cached(path).write_bytes(damage(_cached(path).read_bytes()))
        assert _bits(read_pll_file(path)) == want
        assert _bits(read_pll_file(path)) == want  # the miss wrote a sound sidecar

    @pytest.mark.parametrize(
        "edit",
        [lambda a: a["features"].__setitem__((3, 1), np.nan),
         lambda a: a["features"].__setitem__((0, 0), np.inf),
         lambda a: a["candidates"].__setitem__((2, a["hidden_truth"][2]), False),
         lambda a: a["candidates"].__setitem__(5, False),
         lambda a: a.update(features=a["features"][:-1]),
         lambda a: a.update(features=a["features"].ravel()),
         lambda a: a.update(features=np.asfortranarray(a["features"])),
         lambda a: a.update(candidates=a["candidates"][:, :-1]),
         lambda a: a.update(hidden_truth=a["hidden_truth"][:-1]),
         lambda a: a.update(hidden_truth=a["hidden_truth"] + a["m"]),
         lambda a: a.update(features=a["features"].astype(np.float32)),
         lambda a: a.update(m=np.array([a["m"]])),
         lambda a: a.pop("candidates"),
         lambda a: a.update(extra=np.zeros(1))],
        ids=["nan", "inf", "truth-not-candidate", "no-candidate", "rows", "features-1d",
             "fortran", "m-columns", "truth-rows", "truth-range", "float32", "m-shape",
             "missing-field", "extra-field"],
    )
    def test_sidecar_breaking_an_invariant_is_a_miss(self, tmp_path, edit):
        path = self._write(tmp_path)
        want = _bits(read_pll_file(path))
        with np.load(_cached(path)) as npz:
            arrays = {name: npz[name] for name in npz.files}
        edit(arrays)
        np.savez(_cached(path), **arrays)
        assert _bits(read_pll_file(path)) == want

    def test_pickled_sidecar_is_never_unpickled(self, tmp_path):
        path = self._write(tmp_path)
        want = _bits(read_pll_file(path))
        with np.load(_cached(path)) as npz:
            arrays = {name: npz[name] for name in npz.files}
        unpickled = []
        arrays["features"] = np.array([_Spy(unpickled)], dtype=object)
        np.savez(_cached(path), **arrays)
        assert _bits(read_pll_file(path)) == want
        assert unpickled == []

    @pytest.mark.parametrize(
        "module, name, error",
        [(tempfile, "mkstemp", PermissionError(13, "Permission denied")),
         (np, "savez", OSError(28, "No space left on device"))],
        ids=["read-only-directory", "disk-full"],
    )
    def test_unwritable_sidecar_still_reads(self, tmp_path, monkeypatch, module, name, error):
        path = self._write(tmp_path)
        want = _bits(data_module._parse_pll(path))

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, name, refuse)
        assert _bits(read_pll_file(path)) == want
        assert os.listdir(tmp_path) == ["data.pll"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes into read-only directories")
    def test_read_only_directory_reads_without_a_sidecar(self, tmp_path):
        path = self._write(tmp_path)
        want = _bits(data_module._parse_pll(path))
        tmp_path.chmod(0o555)
        try:
            assert _bits(read_pll_file(path)) == want
            assert os.listdir(tmp_path) == ["data.pll"]
        finally:
            tmp_path.chmod(0o755)

    def test_cold_read_leaves_only_the_sidecar(self, tmp_path):
        path = self._write(tmp_path)
        for _ in range(2):
            read_pll_file(path)
            assert sorted(os.listdir(tmp_path)) == ["data.pll", "data.pll" + CACHE_SUFFIX]
        assert (_cached(path).stat().st_mode & 0o777) == (path.stat().st_mode & 0o666)

    def test_pipe_is_read_but_not_cached(self, tmp_path):
        ds = _synthetic_dataset(30, seed=23)
        text_path = self._write(tmp_path, ds)
        fifo = tmp_path / "fifo.pll"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(text_path.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        back, digest = data_module._read_pll(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert digest is None
        assert _bits(back) == _bits(read_pll_file(text_path))
        assert not _cached(fifo).exists()

    def test_file_changed_during_the_parse_fails_the_read(self, tmp_path, monkeypatch):
        path = self._write(tmp_path)
        parse = data_module._parse_pll

        def parse_then_edit(p):
            ds = parse(p)
            with open(p, "a", encoding="utf-8") as fh:
                fh.write("\n")
            return ds

        monkeypatch.setattr(data_module, "_parse_pll", parse_then_edit)
        with pytest.raises(OSError, match="changed while it was read"):
            read_pll_file(path)
        assert os.listdir(tmp_path) == ["data.pll"]

    def test_read_returns_the_digest_of_its_bytes(self, tmp_path):
        path = self._write(tmp_path)
        for _ in range(2):  # a miss, then a hit
            assert data_module._read_pll(path)[1] == data_module._sha256(path)


class _Spy:
    """Records that it was unpickled."""

    def __init__(self, calls):
        self.calls = calls

    def __reduce__(self):
        return (self.calls.append, ("unpickled",))


def _synthetic_dataset(n, seed, d=2, q=0.5, m=4):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, m, size=n)
    cands = generate_synthetic(labels, m, q=q, seed=seed + 1)
    feats = rng.standard_normal((n, d))
    return PartialDataset(features=feats, candidates=cands, m=m, hidden_truth=labels)
