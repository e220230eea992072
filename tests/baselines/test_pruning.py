"""Unit tests for pruning primitives."""

import numpy as np
import pytest

from repro.baselines.pruning import channel_pruned_lenet
from repro.models import LeNet
from repro.nn import Tensor


class TestChannelPrune:
    def test_architecture_shrinks(self):
        model = LeNet(rng=0)
        pruned = channel_pruned_lenet(model, 0.5, rng=np.random.default_rng(1))
        assert pruned.num_parameters() < model.num_parameters()

    def test_forward_works(self):
        model = LeNet(rng=0)
        pruned = channel_pruned_lenet(model, 0.5, rng=np.random.default_rng(1))
        out = pruned(Tensor(np.random.default_rng(0).random((2, 1, 28, 28)).astype(np.float32)))
        assert out.shape == (2, 10)
        assert np.isfinite(out.data).all()

    def test_keep_one_preserves_function(self):
        """keep_fraction=1.0 must reproduce the original network exactly."""
        model = LeNet(rng=0)
        clone = channel_pruned_lenet(model, 1.0, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).random((3, 1, 28, 28)).astype(np.float32))
        assert np.allclose(clone(x).data, model(x).data, atol=1e-5)

    def test_latency_decreases_with_pruning(self):
        from repro.hw import raspberry_pi4, lenet_latency

        model = LeNet(rng=0)
        dev = raspberry_pi4()
        lat_full = lenet_latency(model, dev)
        lat_half = lenet_latency(channel_pruned_lenet(model, 0.5), dev)
        assert lat_half < lat_full

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            channel_pruned_lenet(LeNet(rng=0), 0.0)
