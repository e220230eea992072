"""Unit tests for the LeNet baseline."""

import numpy as np

from repro.models import LeNet
from repro.nn import Tensor


class TestArchitecture:
    def test_forward_shape(self):
        model = LeNet(rng=0)
        out = model(Tensor(np.zeros((3, 1, 28, 28), dtype=np.float32)))
        assert out.shape == (3, 10)

    def test_three_convs_two_fcs(self):
        """Paper §IV-B: 3 conv + 2 FC layers."""
        from repro.nn.layers import Conv2d, Linear

        model = LeNet(rng=0)
        convs = [m for m in model.modules() if isinstance(m, Conv2d)]
        fcs = [m for m in model.modules() if isinstance(m, Linear)]
        assert len(convs) == 3
        assert len(fcs) == 2

    def test_custom_num_classes(self):
        model = LeNet(num_classes=7, rng=0)
        out = model(Tensor(np.zeros((1, 1, 28, 28), dtype=np.float32)))
        assert out.shape == (1, 7)

    def test_deterministic_init(self):
        a, b = LeNet(rng=3), LeNet(rng=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.allclose(pa.data, pb.data)

    def test_stages_cover_model(self):
        model = LeNet(rng=0)
        stage_names = [name for name, _ in model.stages()]
        assert stage_names == ["features", "classifier"]


class TestPredict:
    def test_predict_shape_and_range(self):
        model = LeNet(rng=0)
        images = np.random.default_rng(0).random((10, 1, 28, 28)).astype(np.float32)
        preds = model.predict(images, batch_size=4)
        assert preds.shape == (10,)
        assert ((preds >= 0) & (preds < 10)).all()

    def test_predict_empty(self):
        model = LeNet(rng=0)
        preds = model.predict(np.zeros((0, 1, 28, 28), dtype=np.float32))
        assert preds.shape == (0,)

    def test_predict_batching_consistent(self):
        model = LeNet(rng=0)
        images = np.random.default_rng(1).random((9, 1, 28, 28)).astype(np.float32)
        assert np.array_equal(model.predict(images, batch_size=2),
                              model.predict(images, batch_size=9))


class TestTrainability:
    def test_overfits_tiny_batch(self):
        """Sanity: the network can memorize 16 samples."""
        from repro.core import TrainConfig
        from repro.core.trainer import fit_classifier
        from repro.data import ArrayDataset
        from repro.data.synth.digits import render_digits

        rng = np.random.default_rng(0)
        labels = np.arange(16) % 4
        images = render_digits(labels, rng)[:, None, :, :]
        ds = ArrayDataset(images, labels)
        model = LeNet(rng=0)
        fit_classifier(model, ds, TrainConfig(epochs=20, batch_size=16, lr=2e-3), rng=0)
        assert (model.predict(images) == labels).mean() >= 0.9
