"""Unit tests for the Module system (registration, state dicts, modes)."""

import numpy as np
import pytest

from repro.nn import Module, Parameter, Sequential, Tensor
from repro.nn.layers import Linear, ReLU


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.ones((2, 2)))

    def forward(self, x):
        return x @ self.w


class Branchy(Module):
    def __init__(self):
        super().__init__()
        self.a = Leaf()
        self.b = Sequential(Leaf(), ReLU())

    def forward(self, x):
        return self.b(self.a(x))


class TestRegistration:
    def test_named_parameters_dotted_paths(self):
        model = Branchy()
        names = sorted(name for name, _ in model.named_parameters())
        assert names == ["a.w", "b.0.w"]

    def test_modules_iteration(self):
        model = Branchy()
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds.count("Leaf") == 2
        assert "Sequential" in kinds

    def test_num_parameters(self):
        assert Branchy().num_parameters() == 8

    def test_children(self):
        model = Branchy()
        assert len(list(model.children())) == 2

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestModes:
    def test_train_eval_recursive(self):
        model = Branchy()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_all(self):
        model = Branchy()
        out = model(Tensor(np.ones((1, 2)), requires_grad=False))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip(self):
        m1, m2 = Branchy(), Branchy()
        for p in m1.parameters():
            p.data = p.data * 3.0
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.allclose(p1.data, p2.data)

    def test_state_dict_is_a_copy(self):
        model = Branchy()
        state = model.state_dict()
        state["a.w"][:] = 99.0
        assert not np.allclose(model.a.w.data, 99.0)

    def test_strict_mismatch_raises(self):
        model = Branchy()
        with pytest.raises(KeyError):
            model.load_state_dict({"nonexistent": np.ones(2)})

    def test_non_strict_ignores_unexpected(self):
        model = Branchy()
        model.load_state_dict({"bogus": np.ones(1), **model.state_dict()}, strict=False)

    def test_shape_mismatch_raises(self):
        model = Branchy()
        state = model.state_dict()
        state["a.w"] = np.ones((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestSequential:
    def test_order_and_len(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        assert len(seq) == 3
        out = seq(Tensor(np.zeros((1, 4), dtype=np.float32)))
        assert out.shape == (1, 2)

    def test_slicing_returns_sequential(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        head = seq[:2]
        assert isinstance(head, Sequential)
        assert len(head) == 2
        out = head(Tensor(np.zeros((1, 4), dtype=np.float32)))
        assert out.shape == (1, 8)

    def test_indexing(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 8, rng=rng)
        seq = Sequential(layer, ReLU())
        assert seq[0] is layer

    def test_append(self):
        seq = Sequential()
        seq.append(ReLU())
        assert len(seq) == 1

    def test_slice_shares_parameters(self):
        """Truncation (paper §III-B) must share weights, not copy them."""
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(4, 8, rng=rng), ReLU())
        head = seq[:1]
        assert head[0] is seq[0]
