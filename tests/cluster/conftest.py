"""Shared toy backends for the cluster-layer tests (no training needed)."""

import numpy as np
import pytest

from repro.serving.backends import BatchTiming, InferenceBackend
from repro.serving.router import RouteDecision


class SumBackend(InferenceBackend):
    """Deterministic toy model: label = pixel-sum mod 10."""

    name = "sum"

    def __init__(self, per_item_s=0.001, overhead_s=0.001):
        super().__init__(BatchTiming(overhead_s=overhead_s, per_item_s=per_item_s))

    def predict(self, images, decision=None):
        return (images.reshape(images.shape[0], -1).sum(axis=1)).astype(np.int64) % 10


class RoutedSumBackend(SumBackend):
    """Toy dynamic backend: images with mean > 0.5 are 'hard' (4x cost)."""

    name = "routed-sum"

    def __init__(self, per_item_s=0.001):
        super().__init__(per_item_s)
        self.timing = BatchTiming(
            overhead_s=0.001,
            per_item_s=per_item_s,
            gate_s=0.0005,
            per_hard_extra_s=3 * per_item_s,
        )

    def route(self, images):
        means = images.reshape(images.shape[0], -1).mean(axis=1)
        return RouteDecision(easy=means <= 0.5, entropy=means)


def same_state(a, b) -> bool:
    """``bit_generator.state`` equality through nested dicts and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def make_images(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, 1, 4, 4)).astype(np.float32)


def labels_for(images):
    return (images.reshape(images.shape[0], -1).sum(axis=1)).astype(np.int64) % 10


@pytest.fixture
def images100():
    return make_images(100)
