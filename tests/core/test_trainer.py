"""Unit tests for the training loops."""

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.core.trainer import evaluate_accuracy, fit_autoencoder, fit_classifier
from repro.models import BranchyLeNet, ConvertingAutoencoder, LeNet
from repro.models.autoencoder import AutoencoderSpec


class TestTrainConfig:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.epochs > 0

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=-1)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    def test_to_dict_roundtrip_is_jsonable(self):
        import json

        json.dumps(TrainConfig().to_dict())


class TestFitClassifier:
    def test_loss_decreases(self, tiny_mnist):
        model = LeNet(rng=0)
        history = fit_classifier(
            model, tiny_mnist["train"], TrainConfig(epochs=3, batch_size=64), rng=0
        )
        assert len(history.loss) == 3
        assert history.loss[-1] < history.loss[0]

    def test_eval_dataset_tracks_accuracy(self, tiny_mnist):
        model = LeNet(rng=0)
        history = fit_classifier(
            model,
            tiny_mnist["train"],
            TrainConfig(epochs=2, batch_size=64),
            rng=0,
            eval_dataset=tiny_mnist["test"],
        )
        assert len(history.accuracy) == 2
        assert history.final_accuracy > 0.3

    def test_multi_exit_model_supported(self, tiny_mnist):
        model = BranchyLeNet(rng=0)
        history = fit_classifier(
            model, tiny_mnist["train"], TrainConfig(epochs=2, batch_size=64), rng=0
        )
        assert history.loss[-1] < history.loss[0]

    def test_model_left_in_eval_mode(self, tiny_mnist):
        model = LeNet(rng=0)
        fit_classifier(model, tiny_mnist["train"], TrainConfig(epochs=1), rng=0)
        assert not model.training

    def test_sgd_optimizer_path(self, tiny_mnist):
        model = LeNet(rng=0)
        history = fit_classifier(
            model,
            tiny_mnist["train"],
            TrainConfig(epochs=2, optimizer="sgd", lr=0.05, momentum=0.9),
            rng=0,
        )
        assert history.loss[-1] < history.loss[0]

    def test_deterministic_given_seed(self, tiny_mnist):
        h1 = fit_classifier(LeNet(rng=5), tiny_mnist["train"], TrainConfig(epochs=1), rng=5)
        h2 = fit_classifier(LeNet(rng=5), tiny_mnist["train"], TrainConfig(epochs=1), rng=5)
        assert h1.loss == pytest.approx(h2.loss)


class TestEvaluateAccuracy:
    def test_range(self, tiny_mnist):
        acc = evaluate_accuracy(LeNet(rng=0), tiny_mnist["test"])
        assert 0.0 <= acc <= 1.0

    def test_untrained_near_chance(self, tiny_mnist):
        acc = evaluate_accuracy(LeNet(rng=0), tiny_mnist["test"])
        assert acc < 0.5


class TestFitAutoencoder:
    def _spec(self):
        return AutoencoderSpec(
            name="t",
            layer_sizes=(32, 16, 8),
            activations=("relu", "relu", "linear"),
            output_activation="sigmoid",
            input_dim=16,
        )

    def test_loss_decreases(self):
        rng = np.random.default_rng(0)
        model = ConvertingAutoencoder(self._spec(), rng=0)
        x = rng.random((128, 16)).astype(np.float32)
        history = fit_autoencoder(model, x, x, TrainConfig(epochs=15, batch_size=32), rng=0)
        assert history.loss[-1] < history.loss[0]

    def test_shape_mismatch_raises(self):
        model = ConvertingAutoencoder(self._spec(), rng=0)
        with pytest.raises(ValueError):
            fit_autoencoder(model, np.zeros((4, 16)), np.zeros((5, 16)))

    def test_non_flat_raises(self):
        model = ConvertingAutoencoder(self._spec(), rng=0)
        with pytest.raises(ValueError):
            fit_autoencoder(model, np.zeros((4, 4, 4)), np.zeros((4, 4, 4)))

    def test_activity_penalty_contributes(self):
        """With a huge L1 coefficient, the penalty dominates the loss."""
        spec = AutoencoderSpec(
            name="t2",
            layer_sizes=(32, 16, 8),
            activations=("relu", "relu", "linear"),
            output_activation="sigmoid",
            input_dim=16,
            l1_activity=1e3,
        )
        rng = np.random.default_rng(0)
        model = ConvertingAutoencoder(spec, rng=0)
        x = rng.random((64, 16)).astype(np.float32)
        history = fit_autoencoder(model, x, x, TrainConfig(epochs=1, batch_size=32), rng=0)
        assert history.loss[0] > 1.0  # MSE alone would be < 1
