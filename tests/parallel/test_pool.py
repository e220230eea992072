"""Unit tests for the process pool."""

import pytest

from repro.parallel import parallel_map, worker_count


def square(x):
    return x * x


class TestWorkerCount:
    def test_explicit(self):
        assert worker_count(3) == 3

    def test_capped_by_items(self):
        assert worker_count(8, n_items=2) == 2

    def test_default_positive(self):
        assert worker_count() >= 1

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            worker_count(0)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert worker_count() == 1


class TestParallelMap:
    def test_ordered_results(self):
        assert parallel_map(square, list(range(20)), n_workers=4) == [
            i * i for i in range(20)
        ]

    def test_serial_fallback_single_item(self):
        assert parallel_map(square, [7]) == [49]

    def test_serial_explicit(self):
        assert parallel_map(square, [1, 2, 3], n_workers=1) == [1, 4, 9]

    def test_empty(self):
        assert parallel_map(square, []) == []

    def test_matches_serial(self):
        items = list(range(37))
        assert parallel_map(square, items, n_workers=4) == [square(i) for i in items]
