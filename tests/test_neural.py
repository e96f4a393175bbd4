"""MLP forward/backward against finite differences, loss identities,
optimizer update rules, checkpoint round-trip."""

import math

import numpy as np
import pytest

from cleanse.checks import relative_error
from cleanse.neural import (
    _STEP_BLOCK,
    Adam,
    Mlp,
    Sgd,
    backward,
    forward,
    load_mlp,
    reweighted_ce,
    save_mlp,
    softmax,
)
from cleanse.reweight import build_weight_matrix


def _model(widths, seed=0):
    return Mlp.init(widths, np.random.default_rng(seed))


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


class TestOptimizers:
    def test_zero_lr_leaves_model_unchanged(self):
        model = _model((3, 4, 2), seed=9)
        before = [p.copy() for p in model.parameters()]
        grads = [np.ones_like(p) for p in model.parameters()]
        Sgd(lr=0.0).step(model, grads)
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_scalar_sgd_step(self):
        model = Mlp(widths=(1, 1), weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        Sgd(lr=0.1).step(model, [np.array([[1.0]]), np.array([0.0])])
        assert model.weights[0][0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_weight_decay_shrinks_without_gradient(self):
        model = Mlp(widths=(1, 1), weights=[np.array([[2.0]])], biases=[np.array([0.0])])
        lr, wd = 0.5, 1e-5
        Sgd(lr=lr, weight_decay=wd).step(model, [np.zeros((1, 1)), np.zeros(1)])
        assert model.weights[0][0, 0] == pytest.approx(2.0 * (1 - lr * wd), abs=1e-15)

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


def _textbook_sgd_step(params, grads, lr, weight_decay):
    for p, g in zip(params, grads):
        p -= lr * (g + weight_decay * p)


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
    @staticmethod
    def _model():
        # 784x300 spans several row blocks, a 40000-wide row exceeds one
        # block, the 1-D biases are single blocks, and the Fortran-ordered
        # weight makes every row slice a strided view
        rng = np.random.default_rng(12)
        weights = [
            rng.standard_normal((784, 300)),
            rng.standard_normal((3, 40000)),
            np.asfortranarray(rng.standard_normal((70, 50))),
        ]
        biases = [rng.standard_normal(300), rng.standard_normal(40000), rng.standard_normal(50)]
        assert 784 * 300 > 2 * _STEP_BLOCK and 40000 > _STEP_BLOCK
        return Mlp(widths=(784, 300), weights=weights, biases=biases)

    @pytest.mark.parametrize("name", ["adam", "sgd"])
    def test_equals_textbook_update_in_place(self, name):
        model = self._model()
        params = model.parameters()
        want = [p.copy() for p in params]
        lr, wd = 1e-3, 1e-5
        opt = Adam(lr=lr, weight_decay=wd) if name == "adam" else Sgd(lr=lr, weight_decay=wd)
        ref = _TextbookAdam(want, lr, wd) if name == "adam" else None
        rng = np.random.default_rng(13)
        for _ in range(5):
            grads = [rng.standard_normal(p.shape) for p in params]
            opt.step(model, grads)
            if ref is None:
                _textbook_sgd_step(want, grads, lr, wd)
            else:
                ref.step(want, grads)
            for p, q, w in zip(model.parameters(), params, want):
                assert p is q
                assert p.tobytes() == w.tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = _model((4, 7, 3), seed=11)
        path = tmp_path / "model.txt"
        save_mlp(model, path)
        back = load_mlp(path)
        assert back.widths == model.widths
        for a, b in zip(model.parameters(), back.parameters()):
            np.testing.assert_array_equal(a, b)

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
