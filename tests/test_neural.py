"""MLP forward/backward against finite differences, loss identities,
optimizer update rules, checkpoint round-trip."""

import math
import tracemalloc

import numpy as np
import pytest

from cleanse.checks import relative_error
from cleanse.neural import (
    _STEP_BLOCK,
    Adam,
    Mlp,
    _relu_backward,
    backward,
    forward,
    load_mlp,
    make_optimizer,
    reweighted_ce,
    save_mlp,
    softmax,
)
from cleanse.reweight import build_weight_matrix


def _model(widths, seed=0, dtype=np.float64):
    return Mlp.init(widths, np.random.default_rng(seed), dtype=dtype)


class TestForward:
    def test_zero_weights_give_uniform(self):
        model = _model((3, 4, 5))
        for w in model.weights:
            w[:] = 0.0
        _, probs = forward(model, np.random.default_rng(1).standard_normal((6, 3)))
        np.testing.assert_allclose(probs, 1.0 / 5.0, atol=1e-15)

    def test_identity_like_single_layer(self):
        model = Mlp(widths=(3, 3), weights=[np.eye(3) * 10.0], biases=[np.zeros(3)])
        X = np.eye(3)
        _, probs = forward(model, X)
        np.testing.assert_array_equal(np.argmax(probs, axis=1), [0, 1, 2])

    def test_extreme_logits_do_not_overflow(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert probs[0, 1] >= 0.0
        assert np.all(np.isfinite(probs))

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-30, 30, size=(50, 7))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        shifted = softmax(logits + 123.456)
        np.testing.assert_allclose(probs, shifted, atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward(_model((3, 2)), np.zeros((1, 4)))

    def test_penultimate_shape(self):
        model = _model((3, 8, 5, 2))
        hidden, probs = forward(model, np.zeros((4, 3)))
        assert [h.shape for h in hidden] == [(4, 8), (4, 5)]
        assert probs.shape == (4, 2)
        assert forward(_model((3, 2)), np.zeros((4, 3)))[0] == []


class TestFloat32:
    """A float32 network: same draws, float32 inside, float64 probabilities."""

    def test_init_casts_the_float64_draws(self):
        rng64, rng32 = np.random.default_rng(3), np.random.default_rng(3)
        m64 = Mlp.init((5, 7, 3), rng64)
        m32 = Mlp.init((5, 7, 3), rng32, dtype=np.float32)
        assert (m64.dtype, m32.dtype) == (np.float64, np.float32)
        for a, b in zip(m64.parameters(), m32.parameters()):
            assert b.dtype == np.float32
            np.testing.assert_array_equal(a.astype(np.float32), b)
        assert rng64.bit_generator.state == rng32.bit_generator.state
        # the weights are fan-in uniforms drawn layer by layer; biases are 0
        rng = np.random.default_rng(3)
        for w, b in zip(m64.weights, m64.biases):
            bound = math.sqrt(6.0 / len(w))
            assert w.tobytes() == rng.uniform(-bound, bound, size=w.shape).tobytes()
            assert not b.any()

    def test_activations_follow_the_model_probabilities_are_float64(self):
        model = _model((4, 6, 3), dtype=np.float32)
        X = np.random.default_rng(4).standard_normal((5, 4))
        hidden, probs = forward(model, X)
        assert hidden[0].dtype == np.float32 and probs.dtype == np.float64
        grads = backward(model, X, hidden, probs - 1.0 / 3.0)
        assert [g.dtype for g in grads] == [np.float32] * 4

    def test_gradients_match_float64_on_the_same_inputs(self):
        # float32 parameters and inputs, upcast exactly to float64: the two
        # runs differ only in arithmetic.  At mnist-shape widths the
        # norm-wise relative error measured about 5e-7 (float32's eps is
        # 1.2e-7); 1e-5 leaves a 20x margin and still catches a wrong dtype
        # in a matmul chain, which costs far more than float32 roundoff.
        tol = 1e-5
        rng = np.random.default_rng(5)
        for widths in ((784, 300, 300, 10), (6, 9, 9, 4)):
            m32 = _model(widths, seed=6, dtype=np.float32)
            m64 = Mlp(widths=m32.widths, weights=[w.astype(np.float64) for w in m32.weights],
                      biases=[b.astype(np.float64) for b in m32.biases])
            X = rng.standard_normal((64, widths[0])).astype(np.float32)
            weights = softmax(rng.standard_normal((64, widths[-1])))
            grads = []
            for model in (m32, m64):
                hidden, probs = forward(model, X)
                grads.append(backward(model, X, hidden, reweighted_ce(probs, weights)[1]))
            for g32, g64 in zip(*grads):
                assert np.linalg.norm(g32 - g64) <= tol * np.linalg.norm(g64)


class TestReweightedCe:
    def test_one_hot_perfect_prediction_zero_loss(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        weights = np.array([[1.0, 0.0, 0.0]])
        loss, _, saturated = reweighted_ce(probs, weights)
        assert loss == 0.0
        assert not saturated

    def test_uniform_two_candidates_uniform_probs(self):
        probs = np.full((1, 4), 0.25)
        weights = np.array([[0.5, 0.5, 0.0, 0.0]])
        loss, _, _ = reweighted_ce(probs, weights)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_grad_is_probs_minus_weights_over_n(self):
        rng = np.random.default_rng(3)
        probs = softmax(rng.standard_normal((5, 4)))
        weights = softmax(rng.standard_normal((5, 4)))
        _, grad, _ = reweighted_ce(probs, weights)
        np.testing.assert_array_equal(grad, (probs - weights) / 5)

    def test_temperature_one_matches_uniform_reference_bitwise(self):
        rng = np.random.default_rng(4)
        m = 6
        cands = np.zeros((32, m), dtype=bool)
        for row in cands:
            size = int(rng.integers(1, m + 1))
            row[rng.permutation(m)[:size]] = True
        enhanced = [int(np.argmax(row)) for row in cands]
        weights = build_weight_matrix(cands, enhanced, temperature=1.0)
        reference = np.zeros((32, m))
        for i, row in enumerate(cands):
            labs = np.flatnonzero(row)
            reference[i, labs] = 1.0 / len(labs)
        np.testing.assert_array_equal(weights, reference)
        probs = softmax(rng.standard_normal((32, m)))
        loss_a, grad_a, _ = reweighted_ce(probs, weights)
        loss_b, grad_b, _ = reweighted_ce(probs, reference)
        assert loss_a == loss_b
        np.testing.assert_array_equal(grad_a, grad_b)

    def test_zero_prob_with_weight_clamps_and_flags(self):
        probs = np.array([[1.0, 0.0]])
        weights = np.array([[0.5, 0.5]])
        loss, grad, saturated = reweighted_ce(probs, weights)
        assert saturated
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = _model((4, 6, 5, 3), seed=6)
        X = rng.standard_normal((10, 4))
        weights = softmax(rng.standard_normal((10, 3)))

        def loss_fn():
            _, probs = forward(model, X)
            return reweighted_ce(probs, weights)[0]

        hidden, probs = forward(model, X)
        _, grad_logits, _ = reweighted_ce(probs, weights)
        grads = backward(model, X, hidden, grad_logits)

        h = 1e-5
        worst = 0.0
        for p, g in zip(model.parameters(), grads):
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_fn()
                flat[idx] = orig - h
                down = loss_fn()
                flat[idx] = orig
                worst = max(worst, relative_error(gflat[idx], (up - down) / (2 * h)))
        assert worst <= 1e-4

    def test_zero_grad_logits_give_zero_grads(self):
        model = _model((3, 4, 2))
        X = np.ones((5, 3))
        grads = backward(model, X, forward(model, X)[0], np.zeros((5, 2)))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_linearity_in_grad_logits(self):
        rng = np.random.default_rng(7)
        model = _model((3, 4, 2), seed=8)
        X = rng.standard_normal((5, 3))
        gl = rng.standard_normal((5, 2))
        hidden, _ = forward(model, X)
        g1 = backward(model, X, hidden, gl)
        g2 = backward(model, X, hidden, 2.0 * gl)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(2.0 * a, b, atol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_gets_the_bits_of_new_arrays(self, dtype):
        # wide enough that the weight gradients take the BLAS GEMM
        rng = np.random.default_rng(11)
        model = _model((40, 33, 17, 5), seed=12, dtype=dtype)
        out = model.gradient_buffer()
        assert [(g.shape, g.dtype) for g in out] == [(p.shape, p.dtype) for p in model.parameters()]
        assert out[0].base is out[-1].base and out[0].base.size == model.flat.size
        for _ in range(2):  # the second call writes over the first one's gradients
            X = rng.standard_normal((70, 40)).astype(dtype)
            hidden, _ = forward(model, X)
            grad_logits = rng.standard_normal((70, 5))
            got = backward(model, X, hidden, grad_logits, out=out)
            assert got is out
            for g, want in zip(got, backward(model, X, hidden, grad_logits)):
                assert g.dtype == want.dtype and g.tobytes() == want.tobytes()

    # values planted in delta @ W.T, each at an active unit (activation > 0)
    # and at an inactive one (+0, -0, negative or nan)
    PLANTED = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5]
    INACTIVE = [0.0, -0.0, -1.0, np.nan, 0.0, -3.0, -0.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_mask_has_the_bits_of_where(self, dtype):
        product = np.array([self.PLANTED * 2], dtype=dtype)
        activation = np.array([[2.0] * len(self.PLANTED) + self.INACTIVE], dtype=dtype)
        active = activation > 0.0
        want = np.where(active, product, 0.0)
        assert want.dtype == dtype
        # a mask multiplied in keeps -0 and makes inf * 0 = nan at inactive
        # units; adding +0 after it loses -0 at active ones
        with np.errstate(invalid="ignore"):
            assert (product * active).tobytes() != want.tobytes()
            assert (product * active + 0.0).tobytes() != want.tobytes()
        got = _relu_backward(product, activation)
        assert got is product and got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_masks_inf_and_nan_like_where(self, dtype):
        # one row and one output, so delta @ W.T is W's column times 1 and the
        # hidden bias gradient is the masked delta itself; inf and nan sit at
        # active and inactive units, where a multiplied mask would give nan
        values = [np.inf, -np.inf, np.nan, 2.0]
        column = np.array(values * 2, dtype=dtype)
        h = len(column)
        model = Mlp(widths=(1, h, 1), weights=[np.ones((1, h), dtype), column[:, None]],
                    biases=[np.zeros(h, dtype), np.zeros(1, dtype)])
        hidden = [np.array([[1.0] * len(values) + [0.0, -0.0, np.nan, -1.0]], dtype=dtype)]
        X, grad_logits = np.ones((1, 1), dtype), np.ones((1, 1))
        grads = backward(model, X, hidden, grad_logits)
        with np.errstate(invalid="ignore"):
            multiplied = column * (hidden[0][0] > 0.0)
        want = np.where(hidden[0] > 0.0, column[None, :], 0.0)[0]
        assert grads[1].tobytes() == want.tobytes()
        assert np.isnan(multiplied).sum() > np.isnan(want).sum()


class TestOptimizers:
    def test_zero_lr_leaves_model_unchanged(self):
        model = _model((3, 4, 2), seed=9)
        before = [p.copy() for p in model.parameters()]
        grads = [np.ones_like(p) for p in model.parameters()]
        Adam(lr=0.0).step(model, grads)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_weight_decay_shrinks_without_gradient(self):
        # the decay term wd * p is the whole gradient, so the bias-corrected
        # first step moves p towards zero by lr * g / (|g| + eps)
        model = Mlp(widths=(1, 1), weights=[np.array([[2.0]])], biases=[np.array([0.0])])
        lr, wd, eps = 0.5, 1e-5, 1e-8
        Adam(lr=lr, weight_decay=wd, eps=eps).step(model, [np.zeros((1, 1)), np.zeros(1)])
        g = 2.0 * wd
        assert model.weights[0][0, 0] == pytest.approx(2.0 - lr * g / (g + eps), abs=1e-12)

    def test_adam_first_step_is_signed_lr(self):
        model = Mlp(widths=(1, 1), weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        opt = Adam(lr=0.01)
        opt.step(model, [np.array([[3.0]]), np.array([0.0])])
        # bias-corrected first step moves by ~lr * sign(g)
        assert model.weights[0][0, 0] == pytest.approx(1.0 - 0.01, rel=1e-6)

    def test_adam_moments_shape_match(self):
        model = _model((3, 5, 2), seed=10)
        opt = Adam()
        grads = [np.ones_like(p) for p in model.parameters()]
        opt.step(model, grads)
        for mom, p in zip(opt.m, model.parameters()):
            assert mom.shape == p.shape


class _TextbookAdam:
    """The plain-expression update the blocked Adam.step must equal bit for bit."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.lr, self.weight_decay, self.betas, self.eps = lr, weight_decay, betas, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.betas
        for i, (p, g) in enumerate(zip(params, grads)):
            g = g + self.weight_decay * p
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / (1.0 - b1**self.t)
            v_hat = self.v[i] / (1.0 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestBlockedStep:
    # widths of the Mlp.init models; the flat buffer lays each out as
    # weights[0], biases[0], weights[1], ...
    DESK = (2, 32, 32, 3)  # one block holds every parameter
    # 400 x 160 = 64000 weights, 160 biases, then 160 x 40: the first block
    # ends inside the second weight matrix, which the second block finishes
    BOUNDARY = (400, 160, 40)

    @staticmethod
    def _mnist_like(dtype):
        # 784x300 spans several blocks, a block ends inside the 3x80000
        # weight, and its 80000 biases outgrow one block; the Fortran-ordered
        # weight is copied into its C-ordered view
        rng = np.random.default_rng(12)
        weights = [
            rng.standard_normal((784, 300)).astype(dtype),
            rng.standard_normal((3, 80000)).astype(dtype),
            np.asfortranarray(rng.standard_normal((70, 50)).astype(dtype)),
        ]
        biases = [rng.standard_normal(n).astype(dtype) for n in (300, 80000, 50)]
        assert 784 * 300 > 2 * _STEP_BLOCK and 80000 > _STEP_BLOCK
        first = 784 * 300 + 300  # where the 3x80000 weight starts
        assert first // _STEP_BLOCK < (first + 3 * 80000 - 1) // _STEP_BLOCK
        return Mlp(widths=(784, 300), weights=weights, biases=biases)

    def _model(self, shape, dtype):
        if shape == "mnist-like":
            return self._mnist_like(dtype)
        widths = self.DESK if shape == "desk" else self.BOUNDARY
        if shape == "boundary":
            assert 400 * 160 + 160 < _STEP_BLOCK < 400 * 160 + 160 + 160 * 40
        return _model(widths, seed=12, dtype=dtype)

    # the optimizer make_optimizer builds, as fit builds it, against the
    # textbook update its step must equal
    @pytest.mark.parametrize("textbook", [_TextbookAdam], ids=["adam"])
    def test_equals_textbook_update_in_place(self, textbook):
        self._check_textbook(textbook, "mnist-like", np.float64)

    @pytest.mark.parametrize("textbook", [_TextbookAdam], ids=["adam"])
    def test_float32_equals_textbook_update_in_place(self, textbook):
        self._check_textbook(textbook, "mnist-like", np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("shape", ["desk", "boundary"])
    @pytest.mark.parametrize("textbook", [_TextbookAdam], ids=["adam"])
    def test_init_models_equal_textbook_update_in_place(self, textbook, shape, dtype):
        self._check_textbook(textbook, shape, dtype)

    def _check_textbook(self, textbook, shape, dtype):
        model = self._model(shape, dtype)
        params = model.parameters()
        want = [p.copy() for p in params]
        lr, wd = 1e-3, 1e-5
        opt = make_optimizer(lr, wd)
        ref = textbook(want, lr, wd)
        rng = np.random.default_rng(13)
        for step in range(5):
            grads = [rng.standard_normal(p.shape).astype(dtype) for p in params]
            if step == 1:  # a gradient that is not C-ordered enters as a copy
                grads[0] = np.asfortranarray(grads[0])
            opt.step(model, grads)
            ref.step(want, grads)
            for p, q, w in zip(model.parameters(), params, want):
                assert p is q and p.dtype == dtype
                assert p.tobytes() == w.tobytes()
        assert all(m.dtype == dtype for m in opt.m + opt.v)

    def test_gradient_count_is_checked(self):
        model = self._model("desk", np.float32)
        grads = [np.zeros_like(p) for p in model.parameters()]
        with pytest.raises(ValueError, match="expected 6 gradients, got 5"):
            Adam().step(model, grads[:5])


class TestFlatParameters:
    @staticmethod
    def _check_layout(model, dtype):
        params = model.parameters()
        assert model.flat.dtype == model.dtype == dtype
        assert model.flat.flags.c_contiguous
        assert model.flat.size == sum(p.size for p in params)
        start = 0
        for p in params:
            assert p.flags.c_contiguous and p.base is model.flat
            assert p.__array_interface__["data"][0] == (
                model.flat.__array_interface__["data"][0] + start * p.itemsize)
            start += p.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_load_and_constructor_build_one_buffer(self, tmp_path, dtype):
        model = _model((4, 7, 5, 3), seed=3, dtype=dtype)
        self._check_layout(model, dtype)
        save_mlp(model, tmp_path / "model.txt")
        self._check_layout(load_mlp(tmp_path / "model.txt"), dtype)
        weights = [np.asfortranarray(w) for w in model.weights]
        copy = Mlp(widths=model.widths, weights=weights, biases=model.biases)
        self._check_layout(copy, dtype)
        for a, b in zip(copy.parameters(), model.parameters()):
            assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)


class TestStepMemory:
    # Python objects of the block lists and their views, beyond the scratch
    # buffers themselves (16-23 KB at these widths)
    SLACK = 32 * 1024

    def test_scratch_is_row_blocks_not_parameters(self):
        # Adam's two scratch blocks; at mnist widths in float32 the largest
        # parameter holds 940800 bytes, so scratch the size of a parameter
        # would break the first bound
        model = _model((784, 300, 300, 10), dtype=np.float32)
        params = model.parameters()
        rng = np.random.default_rng(3)
        grads = [rng.standard_normal(p.shape).astype(np.float32) for p in params]
        opt = make_optimizer(1e-3, 1e-5)
        moments = 2 * sum(p.nbytes for p in params)
        block = _STEP_BLOCK * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt.step(model, grads)
            first = tracemalloc.get_traced_memory()[1] - base - moments
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            opt.step(model, grads)
            second = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert first <= 2 * block + self.SLACK
        assert second < block


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        self._check_round_trip(tmp_path, np.float64)

    def test_float32_round_trip_bitwise(self, tmp_path):
        self._check_round_trip(tmp_path, np.float32)

    @staticmethod
    def _check_round_trip(tmp_path, dtype):
        model = _model((4, 7, 3), seed=11, dtype=dtype)
        # every finite bit pattern's range: subnormals, the extremes, -0.0
        bits = np.random.default_rng(14).integers(0, 1 << 64, size=200, dtype=np.uint64)
        values = bits.astype(np.uint32 if dtype == np.float32 else np.uint64).view(dtype)
        values = values[np.isfinite(values)][:28]
        fi = np.finfo(dtype)
        values[:5] = [fi.max, -fi.max, fi.smallest_subnormal, -0.0, fi.tiny]
        model.weights[1].reshape(-1)[:] = values[:21]
        model.biases[0][:] = values[21:]
        path = tmp_path / "model.txt"
        save_mlp(model, path)
        name = np.dtype(dtype).name
        assert path.read_text().splitlines()[0] == f"#mlp widths=4,7,3 dtype={name}"
        back = load_mlp(path)
        assert back.widths == model.widths
        for a, b in zip(model.parameters(), back.parameters()):
            assert b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_float32_values_are_written_shortest(self, tmp_path):
        model = Mlp(widths=(1, 1), weights=[np.array([[0.1]], dtype=np.float32)],
                    biases=[np.array([1e-8], dtype=np.float32)])
        path = tmp_path / "model.txt"
        save_mlp(model, path)
        assert path.read_text() == "#mlp widths=1,1 dtype=float32\n0.1\n1e-08\n"

    def test_header_without_dtype_loads_as_float64(self, tmp_path):
        # the checkpoint format before dtypes were recorded
        path = tmp_path / "old.txt"
        path.write_text("#mlp widths=2,1\n0.1\n-2.5\n0.30000000000000004\n")
        model = load_mlp(path)
        assert model.dtype == np.float64
        np.testing.assert_array_equal(model.weights[0], [[0.1], [-2.5]])
        assert model.biases[0].tolist() == [0.30000000000000004]

    @pytest.mark.parametrize("field", ["dtype=float16", "float32", "dtype=float32 x", "dtype="])
    def test_unknown_dtype_field_rejected(self, tmp_path, field):
        path = tmp_path / "bad.txt"
        path.write_text(f"#mlp widths=2,1 {field}\n0.1\n-2.5\n0.0\n")
        with pytest.raises(ValueError, match="unknown checkpoint dtype field"):
            load_mlp(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#nope\n")
        with pytest.raises(ValueError):
            load_mlp(path)

    @pytest.mark.parametrize("widths", ["5", "3,0,2"])
    def test_bad_widths_rejected_like_init(self, tmp_path, widths):
        path = tmp_path / "bad.txt"
        path.write_text(f"#mlp widths={widths}\n")
        with pytest.raises(ValueError, match="widths"):
            load_mlp(path)
        with pytest.raises(ValueError, match="widths"):
            Mlp.init([int(w) for w in widths.split(",")], np.random.default_rng(0))

    def test_init_deterministic_given_seed(self):
        a = _model((5, 6, 4), seed=12)
        b = _model((5, 6, 4), seed=12)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)
