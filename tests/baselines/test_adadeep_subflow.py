"""Unit + integration tests for the AdaDeep and SubFlow baselines."""

import numpy as np
import pytest

from repro.baselines import AdaDeepCompressor, SubFlowExecutor
from repro.core.config import TrainConfig
from repro.core.trainer import evaluate_accuracy
from repro.hw.devices import raspberry_pi4
from repro.hw.latency import lenet_latency


class TestSubFlow:
    def test_utilization_one_is_identity(self, trained_lenet, tiny_mnist):
        executor = SubFlowExecutor(trained_lenet, utilization=1.0)
        test = tiny_mnist["test"]
        assert np.array_equal(
            executor.predict(test.images), trained_lenet.predict(test.images)
        )

    def test_latency_decreases_with_utilization(self, trained_lenet):
        dev = raspberry_pi4()
        lats = [
            SubFlowExecutor(trained_lenet, u).latency(dev) for u in (1.0, 0.7, 0.4)
        ]
        assert lats[0] > lats[1] > lats[2]

    def test_full_utilization_latency_matches_lenet(self, trained_lenet):
        dev = raspberry_pi4()
        full = SubFlowExecutor(trained_lenet, 1.0).latency(dev)
        assert full == pytest.approx(lenet_latency(trained_lenet, dev), rel=1e-6)

    def test_accuracy_degrades_gracefully(self, trained_lenet, tiny_mnist):
        test = tiny_mnist["test"]
        base = evaluate_accuracy(trained_lenet, test)
        acc = SubFlowExecutor(trained_lenet, 0.8).accuracy(test.images, test.labels)
        assert acc <= base + 1e-9
        assert acc > 0.3  # degraded, not destroyed

    def test_last_conv_never_masked(self, trained_lenet):
        executor = SubFlowExecutor(trained_lenet, 0.3)
        last_conv_pos = max(executor.masks)
        assert executor.masks[last_conv_pos].active.all()

    def test_invalid_utilization_raises(self, trained_lenet):
        with pytest.raises(ValueError):
            SubFlowExecutor(trained_lenet, 0.0)
        with pytest.raises(ValueError):
            SubFlowExecutor(trained_lenet, 1.5)


class TestAdaDeep:
    @pytest.fixture(scope="class")
    def result(self, trained_lenet, tiny_mnist):
        compressor = AdaDeepCompressor(
            keep_fractions=(0.6, 0.8),
            bit_widths=(8,),
            accuracy_budget=0.05,
            finetune=TrainConfig(epochs=1, batch_size=128, lr=5e-4),
        )
        return compressor.compress(
            trained_lenet, tiny_mnist["train"], tiny_mnist["test"], raspberry_pi4(), rng=0
        )

    def test_returns_faster_model(self, result, trained_lenet):
        dev = raspberry_pi4()
        assert result.latency_s < lenet_latency(trained_lenet, dev)

    def test_accuracy_within_budget_or_best_effort(self, result, trained_lenet, tiny_mnist):
        base = evaluate_accuracy(trained_lenet, tiny_mnist["test"])
        assert result.accuracy > base - 0.15  # generous: tiny data

    def test_chosen_point_from_grid(self, result):
        assert result.keep_fraction in (0.6, 0.8)
        assert result.quant_bits == 8
        assert result.candidates_evaluated == 2

    def test_compressed_model_runs(self, result):
        preds = result.model.predict(
            np.random.default_rng(0).random((4, 1, 28, 28)).astype(np.float32)
        )
        assert preds.shape == (4,)
