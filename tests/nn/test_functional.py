"""Unit tests for nn.functional (conv, pooling, softmax, losses, entropy)."""

import numpy as np
import pytest

from repro.nn import Tensor, gradcheck
from repro.nn import functional as F


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 5, 5)).astype(np.float32))
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(w), padding=1)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_output_shape_stride_padding(self):
        x = Tensor(np.zeros((2, 3, 28, 28), dtype=np.float32))
        w = Tensor(np.zeros((8, 3, 5, 5), dtype=np.float32))
        assert F.conv2d(x, w).shape == (2, 8, 24, 24)
        assert F.conv2d(x, w, padding=2).shape == (2, 8, 28, 28)
        assert F.conv2d(x, w, stride=2).shape == (2, 8, 12, 12)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        # Naive 7-loop cross-correlation as ground truth.
        expected = np.zeros((1, 3, 4, 4), dtype=np.float64)
        for f in range(3):
            for i in range(4):
                for j in range(4):
                    expected[0, f, i, j] = (
                        (x[0, :, i : i + 3, j : j + 3] * w[f]).sum() + b[f]
                    )
        assert np.allclose(out, expected, atol=1e-4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 8, 8))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 7, 7))))

    def test_bad_stride_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 8, 8))), Tensor(np.zeros((1, 1, 3, 3))), stride=0)

    def test_non_nchw_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((8, 8))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_gradcheck_full(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.5
        b = rng.standard_normal(3)
        assert gradcheck(
            lambda xx, ww, bb: (F.conv2d(xx, ww, bb, stride=2, padding=1) ** 2).sum(),
            x,
            w,
            b,
        )


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_overlapping_stride(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        out = F.max_pool2d(Tensor(x), 3, stride=2).data
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == 12

    def test_max_pool_backward_routes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        grad = x.grad[0, 0]
        assert grad.sum() == pytest.approx(4.0)
        assert grad[1, 1] == 1.0 and grad[3, 3] == 1.0
        assert grad[0, 0] == 0.0

    def test_avg_pool_values(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        out = F.avg_pool2d(Tensor(x), 2).data
        assert np.allclose(out, 1.0)

    def test_pool_kernel_exceeds_input_raises(self):
        with pytest.raises(ValueError):
            F.max_pool2d(Tensor(np.zeros((1, 1, 2, 2))), 3)


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((5, 10)).astype(np.float32))
        probs = F.softmax(logits, axis=1).data
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs >= 0).all()

    def test_softmax_stability_large_logits(self):
        logits = Tensor(np.array([[1000.0, 1000.0]], dtype=np.float32))
        probs = F.softmax(logits).data
        assert np.allclose(probs, 0.5)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -50.0, dtype=np.float32)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert float(loss.data) < 1e-6

    def test_cross_entropy_uniform_is_log_k(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert float(loss.data) == pytest.approx(np.log(10), abs=1e-5)

    def test_cross_entropy_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_cross_entropy_batch_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(3)
        assert gradcheck(
            lambda l: F.cross_entropy(l, np.array([0, 4, 9])),
            rng.standard_normal((3, 10)),
        )

    def test_mse_loss_zero_for_identical(self):
        x = Tensor(np.ones((3, 4)))
        assert float(F.mse_loss(x, Tensor(np.ones((3, 4)))).data) == 0.0

    def test_mse_loss_value(self):
        pred = Tensor(np.zeros((1, 4)), requires_grad=True)
        target = Tensor(np.full((1, 4), 2.0))
        loss = F.mse_loss(pred, target)
        assert float(loss.data) == pytest.approx(4.0)
        loss.backward()
        assert np.allclose(pred.grad, -1.0)  # d/dp mean((p-t)^2) = 2(p-t)/n

    def test_linear_matches_manual(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        w = rng.standard_normal((2, 5)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(out, x @ w.T + b, atol=1e-5)


class TestEntropy:
    def test_entropy_uniform_is_log_k(self):
        p = np.full((2, 10), 0.1)
        assert np.allclose(F.entropy(p), np.log(10), atol=1e-6)

    def test_entropy_onehot_is_zero(self):
        p = np.eye(4)
        assert np.allclose(F.entropy(p), 0.0, atol=1e-9)

class TestCol2ImDirectScatter:
    """The padding-aware _col2im scatters straight into the unpadded
    gradient; these pin its clipping arithmetic on awkward geometries."""

    def test_gradcheck_padding_exceeds_kernel_reach(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 1, 5, 5)) * 0.5
        w = rng.standard_normal((2, 1, 3, 3)) * 0.5
        assert gradcheck(
            lambda xx, ww: (F.conv2d(xx, ww, stride=3, padding=2) ** 2).sum(), x, w
        )

    def test_gradcheck_wide_padding_stride_mix(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 2, 4, 6)) * 0.5
        w = rng.standard_normal((3, 2, 3, 3)) * 0.5
        assert gradcheck(
            lambda xx, ww: (F.conv2d(xx, ww, stride=2, padding=2) ** 2).sum(), x, w
        )

    def test_input_grad_matches_seed_formulation(self):
        """dx computed by direct scatter == scatter-into-padded-then-slice."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        out = F.conv2d(x, w, padding=1, stride=2)
        out.sum().backward()
        # seed formulation: pad input explicitly, no padding arg
        x2 = Tensor(np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1))), requires_grad=True)
        w2 = Tensor(w.data.copy(), requires_grad=True)
        F.conv2d(x2, w2, padding=0, stride=2).sum().backward()
        np.testing.assert_allclose(x.grad, x2.grad[:, :, 1:-1, 1:-1], atol=1e-5)
        np.testing.assert_allclose(w.grad, w2.grad, atol=1e-5)
