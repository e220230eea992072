"""Unit tests for the autograd Tensor."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, no_grad


class TestConstruction:
    def test_python_list_becomes_float32(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_ndarray_dtype_preserved(self):
        t = Tensor(np.arange(4, dtype=np.float64))
        assert t.dtype == np.float64

    def test_explicit_dtype_respected(self):
        t = Tensor([1, 2], dtype=np.float64)
        assert t.dtype == np.float64

    def test_wrapping_tensor_raises(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_repr_mentions_shape_and_grad(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True, name="w")
        assert "shape=(2, 3)" in repr(t)
        assert "requires_grad=True" in repr(t)
        assert "w" in repr(t)

    def test_item_on_scalar(self):
        assert Tensor(np.float32(2.5)).item() == pytest.approx(2.5)

    def test_item_on_vector_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestArithmetic:
    def test_add_broadcast_backward(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, np.ones((3, 4)))
        assert np.allclose(b.grad, 3 * np.ones(4))  # broadcast axis summed

    def test_scalar_radd_rsub_rmul(self):
        a = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        out = (1.0 + a) * 3.0 - (4.0 - a)
        assert np.allclose(out.data, 9.0 - 2.0)

    def test_mul_backward_product_rule(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([5.0, 7.0]), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5.0, 7.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_div_backward(self):
        a = Tensor(np.array([6.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        (a / b).backward(np.array([1.0]))
        assert a.grad == pytest.approx(1 / 3)
        assert b.grad == pytest.approx(-6 / 9)

    def test_pow_backward(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        (a**2).backward(np.array([1.0]))
        assert a.grad == pytest.approx(6.0)

    def test_pow_non_scalar_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_shapes_and_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3, 4)
        assert np.allclose(a.grad, 4.0)
        assert np.allclose(b.grad, 2.0)

    def test_getitem_backward_scatters(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        a[0].sum().backward()
        assert np.allclose(a.grad, [[1, 1, 1], [0, 0, 0]])

    def test_neg(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.sum(axis=(0, 2), keepdims=True)
        assert out.shape == (1, 3, 1)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_mean_gradient_scaled(self):
        a = Tensor(np.zeros((4, 5)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 1.0 / 20)

    def test_max_gradient_splits_ties(self):
        a = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_transpose_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.transpose()
        assert out.shape == (3, 2)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_flatten_batch(self):
        a = Tensor(np.ones((5, 2, 3)))
        assert a.flatten_batch().shape == (5, 6)

    def test_clip_gradient_masked(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestBackwardMechanics:
    def test_backward_on_nonscalar_without_grad_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward(np.ones(3))

    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a + a).sum().backward()
        assert np.allclose(a.grad, 2.0)

    def test_diamond_graph(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).backward(np.array([1.0]))
        assert a.grad == pytest.approx(7.0)

    def test_detach_cuts_graph(self):
        a = Tensor(np.ones(2), requires_grad=True)
        d = a.detach()
        assert not d.requires_grad
        out = (d * 2).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.ones(1), requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert a.grad == pytest.approx(1.0)


class TestGradMode:
    def test_no_grad_suppresses_graph(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


class TestGradientAliasing:
    """Regression: _accumulate must never adopt a shared upstream gradient.

    An add node forwards the *same* ``g`` array to both parents; taking
    ownership of it aliased both parents' ``.grad`` buffers, so a later
    in-place accumulation into one silently corrupted the other.
    """

    def test_add_parents_do_not_alias(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        z = x + y
        (z.sum() + (x * 3.0).sum()).backward()
        assert np.allclose(x.grad, 4.0)
        assert np.allclose(y.grad, 1.0)  # was corrupted to 4.0 by aliasing
        assert x.grad is not y.grad

    def test_sub_parent_does_not_alias(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        y = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        z = x - y
        (z.sum() + (x * 2.0).sum() + (y * 5.0).sum()).backward()
        assert np.allclose(x.grad, 3.0)
        assert np.allclose(y.grad, 4.0)

    def test_diamond_reuse_in_place_accumulation(self):
        a = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        b = a + a  # both parent slots are the same tensor
        (b * b).sum().backward()
        assert np.allclose(a.grad, 8.0 * np.arange(4))
