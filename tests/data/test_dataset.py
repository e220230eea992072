"""Unit tests for dataset containers."""

import numpy as np
import pytest

from repro.data import ArrayDataset


def make_dataset(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.random((n, 1, 4, 4), dtype=np.float32),
        rng.integers(0, 3, n),
        meta={"is_hard": rng.random(n) < 0.5},
    )


class TestArrayDataset:
    def test_len_and_getitem(self):
        ds = make_dataset(7)
        assert len(ds) == 7
        image, label = ds[3]
        assert image.shape == (1, 4, 4)
        assert isinstance(label, int)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 4, 4)), np.zeros(3))  # not NCHW
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 4, 4)), np.zeros(2))  # label mismatch

    def test_meta_length_validation(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(3), meta={"x": np.zeros(2)})

    def test_select_carries_meta(self):
        ds = make_dataset(10)
        sub = ds.select(np.array([0, 2, 4]))
        assert len(sub) == 3
        assert np.array_equal(sub.meta["is_hard"], ds.meta["is_hard"][[0, 2, 4]])

    def test_class_indices(self):
        ds = make_dataset(30)
        for c in range(3):
            assert np.all(ds.labels[ds.class_indices(c)] == c)

    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((4, 1, 2, 2)), np.array([0, 1, 2, 2]))
        assert ds.num_classes == 3

