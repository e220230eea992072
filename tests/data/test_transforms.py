"""Unit tests for array transforms."""

import numpy as np
import pytest

from repro.data.transforms import (
    flatten,
    from_unit_sum,
    normalize,
    to_unit_sum,
    unflatten,
)


class TestFlattenRoundtrip:
    def test_flatten_shape(self):
        x = np.random.default_rng(0).random((5, 1, 28, 28)).astype(np.float32)
        flat = flatten(x)
        assert flat.shape == (5, 784)
        assert flat.flags["C_CONTIGUOUS"]

    def test_unflatten_inverts(self):
        x = np.random.default_rng(0).random((5, 1, 4, 4)).astype(np.float32)
        assert np.allclose(unflatten(flatten(x), (1, 4, 4)), x)

    def test_unflatten_bad_width_raises(self):
        with pytest.raises(ValueError):
            unflatten(np.zeros((2, 10)), (1, 4, 4))


class TestNormalize:
    def test_standardizes(self):
        x = np.full((2, 1, 2, 2), 5.0, dtype=np.float32)
        out = normalize(x, mean=5.0, std=2.0)
        assert np.allclose(out, 0.0)

    def test_zero_std_raises(self):
        with pytest.raises(ValueError):
            normalize(np.zeros((1, 1, 1, 1)), 0.0, 0.0)


class TestUnitSum:
    def test_to_unit_sum_sums_to_one(self):
        x = np.random.default_rng(1).random((4, 1, 6, 6)).astype(np.float32)
        out = to_unit_sum(x)
        assert np.allclose(out.reshape(4, -1).sum(axis=1), 1.0, atol=1e-5)

    def test_to_unit_sum_handles_all_zero(self):
        out = to_unit_sum(np.zeros((1, 1, 2, 2), dtype=np.float32))
        assert np.all(np.isfinite(out))

    def test_from_unit_sum_peak_is_one(self):
        x = np.random.default_rng(2).random((3, 1, 5, 5)).astype(np.float32) + 0.1
        out = from_unit_sum(to_unit_sum(x))
        assert np.allclose(out.reshape(3, -1).max(axis=1), 1.0, atol=1e-5)

    def test_roundtrip_preserves_structure(self):
        """Unit-sum then peak-rescale keeps relative pixel structure."""
        x = np.random.default_rng(3).random((2, 1, 4, 4)).astype(np.float32) + 0.05
        out = from_unit_sum(to_unit_sum(x))
        flat_x = x.reshape(2, -1)
        flat_o = out.reshape(2, -1)
        ratio = flat_x / flat_o
        # Per-sample the ratio must be a constant (pure rescale).
        assert np.allclose(ratio, ratio[:, :1], rtol=1e-4)
