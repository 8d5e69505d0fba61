import numpy as np
import pytest

from opencon.core import DegenerateVector, Rng
from opencon.encoder import (
    Grads,
    Mlp,
    Optimizer,
    OptimizerConfig,
    ShapeMismatch,
    TapeMismatch,
    backward,
    forward,
)


def flat_params(mlp):
    return np.concatenate([p.ravel() for p in mlp.params().values()])


def set_flat(mlp, flat):
    off = 0
    for name, p in mlp.params().items():
        block = flat[off:off + p.size].reshape(p.shape)
        getattr(mlp, name)[...] = block
        off += p.size


def numeric_param_grad(mlp, x, loss_fn, h=1e-5):
    """Central finite differences of loss_fn(forward(mlp, x)) in parameters."""
    base = flat_params(mlp)
    grad = np.zeros_like(base)
    probe = Mlp(mlp.w1.copy(), mlp.b1.copy(), mlp.w2.copy(), mlp.b2.copy())
    for i in range(base.size):
        for sign in (+1, -1):
            shifted = base.copy()
            shifted[i] += sign * h
            set_flat(probe, shifted)
            z, _ = forward(probe, x)
            if sign > 0:
                upper = loss_fn(z)
            else:
                lower = loss_fn(z)
        grad[i] = (upper - lower) / (2 * h)
    return grad


class TestForward:
    def test_constant_network(self):
        mlp = Mlp(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.array([3.0, 4.0]))
        for x in (np.zeros(3), np.ones(3), np.array([-1.0, 2.0, 0.5])):
            z, _ = forward(mlp, x)
            np.testing.assert_allclose(z, [0.6, 0.8], atol=1e-12)

    def test_identity_like(self):
        # relu(x) - relu(-x) = x reproduces the (normalized) input
        m = 4
        w1 = np.vstack([np.eye(m), -np.eye(m)])
        w2 = np.hstack([np.eye(m), -np.eye(m)])
        mlp = Mlp(w1, np.zeros(2 * m), w2, np.zeros(m))
        rng = Rng(0, "data")
        for _ in range(10):
            x = rng.normal(size=m)
            z, _ = forward(mlp, x)
            expect = x / np.linalg.norm(x)
            assert z @ expect > 0.999

    def test_unit_norm(self):
        mlp = Mlp.init(6, 12, 5, Rng(1, "init"))
        z, _ = forward(mlp, Rng(2, "data").normal(size=(20, 6)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-9)

    def test_degenerate(self):
        mlp = Mlp(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(DegenerateVector):
            forward(mlp, np.ones(3))

    def test_shape_check(self):
        mlp = Mlp.init(6, 12, 5, Rng(1, "init"))
        with pytest.raises(ShapeMismatch):
            forward(mlp, np.ones(7))


class TestBackward:
    def test_zero_grad(self):
        mlp = Mlp.init(5, 8, 4, Rng(3, "init"))
        z, tape = forward(mlp, Rng(4, "data").normal(size=(3, 5)))
        grads = backward(mlp, tape, np.zeros_like(z))
        for g in (grads.w1, grads.b1, grads.w2, grads.b2):
            np.testing.assert_array_equal(g, 0.0)

    def test_radial_grad_killed(self):
        # gradient parallel to the embedding dies in the tangent projection
        mlp = Mlp.init(5, 8, 4, Rng(5, "init"))
        z, tape = forward(mlp, Rng(6, "data").normal(size=(2, 5)))
        grads = backward(mlp, tape, 3.7 * z)
        for g in (grads.w1, grads.b1, grads.w2, grads.b2):
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = Rng(7, "init")
        data_rng = Rng(8, "data")
        for trial in range(20):
            m = int(data_rng.integers(2, 9))
            h = int(data_rng.integers(2, 9))
            d = int(data_rng.integers(2, 9))
            b = int(data_rng.integers(1, 5))
            mlp = Mlp.init(m, h, d, rng)
            mlp.b2 += 0.1 * rng.normal(size=d)  # keep outputs away from the origin
            x = data_rng.normal(size=(b, m))
            t = data_rng.normal(size=(b, d))

            def loss_fn(z):
                return float(np.sum(z * t))

            z, tape = forward(mlp, x)
            analytic = backward(mlp, tape, t)
            flat_analytic = np.concatenate([
                analytic.w1.ravel(), analytic.b1.ravel(),
                analytic.w2.ravel(), analytic.b2.ravel()])
            numeric = numeric_param_grad(mlp, x, loss_fn)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(flat_analytic - numeric) / denom < 1e-6

    def test_tape_mismatch(self):
        mlp = Mlp.init(5, 8, 4, Rng(9, "init"))
        other = Mlp.init(5, 9, 4, Rng(9, "init"))
        z, tape = forward(mlp, np.ones(5))
        with pytest.raises(TapeMismatch):
            backward(other, tape, z)
        with pytest.raises(TapeMismatch):
            backward(mlp, tape, np.ones((3, 4)))


class TestOptimizer:
    def test_plain_sgd(self):
        mlp = Mlp.init(3, 4, 2, Rng(10, "init"))
        w1_before = mlp.w1.copy()
        opt = Optimizer(OptimizerConfig(lr=0.1, momentum=0.0, weight_decay=0.0,
                                        total_epochs=10), mlp)
        grads = Grads.zeros_like(mlp)
        grads.w1 += 1.0
        opt.step(mlp, grads, 0)
        np.testing.assert_allclose(mlp.w1, w1_before - 0.1, atol=1e-15)

    def test_schedule(self):
        mlp = Mlp.init(3, 4, 2, Rng(11, "init"))
        opt = Optimizer(OptimizerConfig(lr=0.02, total_epochs=100), mlp)
        assert opt.lr_at(0) == pytest.approx(0.02)
        assert opt.lr_at(49) == pytest.approx(0.02)
        assert opt.lr_at(50) == pytest.approx(0.002)
        assert opt.lr_at(74) == pytest.approx(0.002)
        assert opt.lr_at(75) == pytest.approx(0.0002)
        assert opt.lr_at(99) == pytest.approx(0.0002)

    def test_weight_decay_skips_biases(self):
        mlp = Mlp.init(3, 4, 2, Rng(12, "init"))
        mlp.b1 += 1.0
        mlp.b2 += 1.0
        before = {k: v.copy() for k, v in mlp.params().items()}
        opt = Optimizer(OptimizerConfig(lr=0.1, momentum=0.0, weight_decay=0.5,
                                        total_epochs=10), mlp)
        opt.step(mlp, Grads.zeros_like(mlp), 0)
        np.testing.assert_array_equal(mlp.b1, before["b1"])
        np.testing.assert_array_equal(mlp.b2, before["b2"])
        assert not np.array_equal(mlp.w1, before["w1"])

    def test_momentum_accumulates(self):
        mlp = Mlp.init(2, 3, 2, Rng(13, "init"))
        w_start = mlp.w1.copy()
        opt = Optimizer(OptimizerConfig(lr=1.0, momentum=0.5, weight_decay=0.0,
                                        total_epochs=10), mlp)
        grads = Grads.zeros_like(mlp)
        grads.w1 += 1.0
        opt.step(mlp, grads, 0)   # v=1, w -= 1
        opt.step(mlp, grads, 0)   # v=1.5, w -= 1.5
        np.testing.assert_allclose(mlp.w1, w_start - 2.5, atol=1e-12)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            mlp = Mlp.init(3, 4, 2, Rng(14, "init"))
            opt = Optimizer(OptimizerConfig(total_epochs=5), mlp)
            data = Rng(15, "data")
            for epoch in range(5):
                z, tape = forward(mlp, data.normal(size=(4, 3)))
                grads = backward(mlp, tape, z - z.mean(axis=0))
                opt.step(mlp, grads, epoch)
            runs.append(flat_params(mlp))
        np.testing.assert_array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        mlp = Mlp.init(3, 4, 2, Rng(17, "init"))
        with pytest.raises(ValueError, match="lr"):
            Optimizer(OptimizerConfig(lr=lr), mlp)

    def test_shape_mismatch(self):
        mlp = Mlp.init(3, 4, 2, Rng(16, "init"))
        opt = Optimizer(OptimizerConfig(total_epochs=5), mlp)
        bad = Grads(np.zeros((1, 1)), np.zeros(4), np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ShapeMismatch):
            opt.step(mlp, bad, 0)
