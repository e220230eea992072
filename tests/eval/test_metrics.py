"""Unit tests for evaluation metrics."""

import numpy as np
import pytest

from repro.eval.metrics import (
    accuracy,
    latency_percentiles,
    speedup,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 2]), np.array([1, 2])) == 1.0

    def test_partial(self):
        assert accuracy(np.array([1, 0, 2, 2]), np.array([1, 1, 2, 0])) == 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestSpeedup:
    def test_values(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(1.0, 1.0) == pytest.approx(1.0)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestLatencyPercentiles:
    def test_default_triplet_matches_numpy(self):
        samples = np.linspace(0.0, 1.0, 101)
        p50, p95, p99 = latency_percentiles(samples)
        assert p50 == pytest.approx(np.percentile(samples, 50))
        assert p95 == pytest.approx(np.percentile(samples, 95))
        assert p99 == pytest.approx(np.percentile(samples, 99))

    def test_custom_percentiles_and_plain_floats(self):
        (p75,) = latency_percentiles([1.0, 2.0, 3.0, 4.0], (75.0,))
        assert isinstance(p75, float)
        assert p75 == pytest.approx(3.25)

    def test_empty_and_no_percentiles_raise(self):
        with pytest.raises(ValueError):
            latency_percentiles(np.array([]))
        with pytest.raises(ValueError):
            latency_percentiles(np.array([1.0]), ())
