"""Unit tests for shared utilities (rng, cache, logging)."""

import numpy as np
import pytest

from repro.utils.cache import ArtifactCache, stable_hash
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator, derive_seed, hash_string, stratified_indices


class TestRng:
    def test_as_generator_from_int_deterministic(self):
        a = as_generator(7).random(4)
        b = as_generator(7).random(4)
        assert np.allclose(a, b)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    @pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), float("inf"), "7"])
    def test_as_generator_rejects_a_bad_seed_by_name(self, seed):
        with pytest.raises(ValueError, match="rng must be"):
            as_generator(seed)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_hash_string_deterministic(self):
        assert hash_string("repro") == hash_string("repro")
        assert hash_string("a") != hash_string("b")

    def test_stratified_indices_balanced(self):
        labels = np.repeat(np.arange(5), 20)
        idx = stratified_indices(labels, 0.5, as_generator(0))
        counts = np.bincount(labels[idx], minlength=5)
        assert counts.min() == counts.max() == 10

    def test_stratified_invalid_fraction(self):
        with pytest.raises(ValueError):
            stratified_indices(np.zeros(4), 0.0, as_generator(0))


class TestCache:
    def test_stable_hash_order_independent(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_stable_hash_distinguishes(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_artifact_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = {"exp": "t", "seed": 1}
        assert cache.get(key) is None
        cache.put(key, {"x": np.arange(3)})
        loaded = cache.get(key)
        assert np.allclose(loaded["x"], [0, 1, 2])

    def test_get_or_compute_called_once(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("key")
        path.write_bytes(b"not a pickle")
        assert cache.get("key") is None

class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("core.trainer")
        assert logger.name == "repro.core.trainer"
