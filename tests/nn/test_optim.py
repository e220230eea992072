"""Unit tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.nn.optim import SGD, Adam, clip_grad_norm


def quadratic_param(value=5.0):
    return Parameter(np.array([value], dtype=np.float32))


def step_quadratic(param, optimizer, steps=50):
    """Minimize f(x) = x^2 by hand-computed gradient 2x."""
    for _ in range(steps):
        optimizer.zero_grad()
        param.grad = 2.0 * param.data
        optimizer.step()
    return float(param.data[0])


class TestSGD:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert abs(step_quadratic(p, SGD([p], lr=0.1))) < 1e-3

    def test_momentum_faster_than_plain(self):
        p1, p2 = quadratic_param(), quadratic_param()
        x_plain = step_quadratic(p1, SGD([p1], lr=0.02), steps=20)
        x_mom = step_quadratic(p2, SGD([p2], lr=0.02, momentum=0.9), steps=20)
        assert abs(x_mom) < abs(x_plain)

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_nesterov_requires_momentum(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, nesterov=True)

    def test_invalid_hyperparams(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            SGD([p], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert abs(step_quadratic(p, Adam([p], lr=0.2), steps=100)) < 1e-2

    def test_bias_correction_first_step(self):
        # First Adam step should move by ~lr regardless of gradient scale.
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([1e-4], dtype=np.float32)
        opt.step()
        assert abs(p.data[0] + 0.01) < 1e-3

    def test_invalid_betas(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.999))

    def test_state_dict_roundtrip(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        state = opt.state_dict()
        opt2 = Adam([p], lr=0.1)
        opt2.load_state_dict(state)
        assert opt2.lr == pytest.approx(0.3)
        assert opt2.step_count == 1


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        p = Parameter(np.array([3.0, 4.0], dtype=np.float32))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-5)

    def test_no_clip_below_threshold(self):
        p = Parameter(np.array([0.1], dtype=np.float32))
        p.grad = np.array([0.1], dtype=np.float32)
        clip_grad_norm([p], max_norm=10.0)
        assert p.grad[0] == pytest.approx(0.1)

    def test_empty_grads_return_zero(self):
        p = Parameter(np.zeros(2))
        assert clip_grad_norm([p], 1.0) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], 0.0)
