"""Tests for the generalized (future-work §V) CBNet variants."""

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.core.generalized import (
    build_encoder_only_cbnet,
    build_generalized_cbnet,
    classifier_entropy,
    label_by_classifier_entropy,
)
from repro.models import LeNet


class TestClassifierEntropyLabeling:
    def test_entropy_contract(self, trained_lenet, tiny_mnist):
        test = tiny_mnist["test"]
        ent = classifier_entropy(trained_lenet, test.images)
        assert ent.shape == (len(test),)
        assert (ent >= 0).all()
        assert (ent <= np.log(10) + 1e-5).all()

    def test_quantile_gate(self, trained_lenet, tiny_mnist):
        test = tiny_mnist["test"]
        labeling = label_by_classifier_entropy(
            trained_lenet, test.images, easy_quantile=0.7
        )
        assert labeling.easy_fraction == pytest.approx(0.7, abs=0.06)

    def test_explicit_threshold(self, trained_lenet, tiny_mnist):
        test = tiny_mnist["test"]
        labeling = label_by_classifier_entropy(trained_lenet, test.images, threshold=1e9)
        assert labeling.easy_fraction == 1.0

    def test_confident_samples_are_easy(self, trained_lenet, tiny_mnist):
        """Lowest-entropy samples must be labelled easy."""
        test = tiny_mnist["test"]
        labeling = label_by_classifier_entropy(trained_lenet, test.images)
        order = np.argsort(labeling.entropy)
        assert labeling.easy[order[:10]].all()


class TestGeneralizedCBNet:
    @pytest.fixture(scope="class")
    def generalized(self, trained_lenet, trained_pipeline):
        train = trained_pipeline.datasets["train"]
        return build_generalized_cbnet(
            trained_lenet,
            train,
            "mnist",
            keep_layers=3,
            seed=0,
            head_train=TrainConfig(epochs=3, batch_size=128),
            ae_train=TrainConfig(epochs=6, batch_size=128),
        )

    def test_no_branchynet_needed(self, generalized):
        """The whole point: built from a plain LeNet."""
        assert isinstance(generalized.source_model, LeNet)
        assert generalized.keep_layers == 3

    def test_accuracy_competitive(self, generalized, trained_pipeline, trained_lenet):
        test = trained_pipeline.datasets["test"]
        acc = generalized.cbnet.accuracy(test.images, test.labels)
        lenet_acc = (trained_lenet.predict(test.images) == test.labels).mean()
        assert acc > lenet_acc - 0.06

    def test_cheaper_than_source(self, generalized):
        from repro.hw import raspberry_pi4, cbnet_latency, lenet_latency

        device = raspberry_pi4()
        t_cb = cbnet_latency(generalized.cbnet, device).total
        t_lenet = lenet_latency(generalized.source_model, device)
        assert t_cb < t_lenet

    def test_labeling_produced(self, generalized):
        assert 0.0 < generalized.labeling.easy_fraction < 1.0


class TestEncoderOnly:
    @pytest.fixture(scope="class")
    def encoder_only(self, trained_pipeline):
        train = trained_pipeline.datasets["train"]
        return build_encoder_only_cbnet(
            trained_pipeline.cbnet.autoencoder,
            train,
            seed=0,
            train=TrainConfig(epochs=4, batch_size=128),
        )

    def test_predict_contract(self, encoder_only, trained_pipeline):
        test = trained_pipeline.datasets["test"]
        preds = encoder_only.predict(test.images)
        assert preds.shape == (len(test),)
        assert ((preds >= 0) & (preds < 10)).all()

    def test_accuracy_reasonable(self, encoder_only, trained_pipeline):
        test = trained_pipeline.datasets["test"]
        assert encoder_only.accuracy(test.images, test.labels) > 0.85

    def test_cheaper_than_full_cbnet(self, encoder_only, trained_pipeline):
        """Dropping the decoder must shrink simulated latency."""
        from repro.hw import raspberry_pi4, cbnet_latency
        from repro.hw.latency import model_latency

        device = raspberry_pi4()
        t_enc_only = model_latency(encoder_only, device, in_shape=(784,))
        t_full = cbnet_latency(trained_pipeline.cbnet, device).total
        assert t_enc_only < t_full

    def test_stages_exposed(self, encoder_only):
        names = [n for n, _ in encoder_only.stages()]
        assert names == ["encoder", "code_classifier"]

    def test_donor_autoencoder_untouched(self, trained_pipeline):
        """Building the encoder-only variant must not corrupt the donor AE
        (regression: the head training used to backprop into the shared
        encoder, collapsing full-CBNet accuracy)."""
        ae = trained_pipeline.cbnet.autoencoder
        before = {name: p.copy() for name, p in ae.state_dict().items()}
        train = trained_pipeline.datasets["train"]
        build_encoder_only_cbnet(
            ae, train, seed=1, train=TrainConfig(epochs=1, batch_size=256)
        )
        after = ae.state_dict()
        for name in before:
            assert np.array_equal(before[name], after[name]), name
