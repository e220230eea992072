"""Unit tests for train/test splitting and stratified subsets."""

import numpy as np
import pytest

from repro.data import ArrayDataset, stratified_subset


def make_dataset(n=100, num_classes=4, hard_frac=0.3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), n // num_classes)
    is_hard = rng.random(n) < hard_frac
    return ArrayDataset(
        rng.random((n, 1, 2, 2), dtype=np.float32), labels, meta={"is_hard": is_hard}
    )


class TestStratifiedSubset:
    def test_fraction_size(self):
        sub = stratified_subset(make_dataset(100), 0.5, rng=0)
        assert len(sub) == pytest.approx(50, abs=4)

    def test_class_proportions_preserved(self):
        sub = stratified_subset(make_dataset(200, num_classes=4), 0.3, rng=0)
        counts = np.bincount(sub.labels, minlength=4)
        assert counts.max() - counts.min() <= 2

    def test_hard_proportion_preserved_with_by(self):
        """The Figs 6-8 protocol: hard fraction stays ~constant."""
        ds = make_dataset(400, hard_frac=0.3, seed=3)
        base = ds.meta["is_hard"].mean()
        sub = stratified_subset(ds, 0.25, rng=0, by="is_hard")
        assert sub.meta["is_hard"].mean() == pytest.approx(base, abs=0.05)

    def test_missing_meta_raises(self):
        with pytest.raises(KeyError):
            stratified_subset(make_dataset(), 0.5, rng=0, by="nonexistent")

    def test_deterministic(self):
        ds = make_dataset(100)
        a = stratified_subset(ds, 0.4, rng=7)
        b = stratified_subset(ds, 0.4, rng=7)
        assert np.allclose(a.images, b.images)
