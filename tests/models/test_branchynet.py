"""Unit tests for BranchyNet-LeNet."""

import numpy as np
import pytest

from repro.models import BranchyLeNet, LeNet
from repro.nn import Tensor
from repro.nn.layers import Conv2d, Linear


class TestArchitecture:
    def test_forward_returns_two_exits(self):
        model = BranchyLeNet(rng=0)
        outs = model(Tensor(np.zeros((2, 1, 28, 28), dtype=np.float32)))
        assert len(outs) == 2
        assert outs[0].shape == (2, 10)
        assert outs[1].shape == (2, 10)

    def test_branch_is_one_conv_one_fc(self):
        """Paper: the branch has 1 conv + 1 FC layer."""
        model = BranchyLeNet(rng=0)
        convs = [m for m in model.branch.modules() if isinstance(m, Conv2d)]
        fcs = [m for m in model.branch.modules() if isinstance(m, Linear)]
        assert len(convs) == 1 and len(fcs) == 1

    def test_main_network_matches_lenet(self):
        """stem + trunk must be structurally identical to LeNet."""
        branchy = BranchyLeNet(rng=0)
        lenet = LeNet(rng=0)
        branchy_shapes = [
            p.data.shape
            for seq in (branchy.stem, branchy.trunk)
            for _, p in seq.named_parameters()
        ]
        lenet_shapes = [
            p.data.shape
            for seq in (lenet.features, lenet.classifier)
            for _, p in seq.named_parameters()
        ]
        assert branchy_shapes == lenet_shapes

    def test_stage_names(self):
        assert [n for n, _ in BranchyLeNet(rng=0).stages()] == ["stem", "branch", "trunk"]


class TestInference:
    def test_infer_contract(self):
        model = BranchyLeNet(rng=0)
        images = np.random.default_rng(0).random((12, 1, 28, 28)).astype(np.float32)
        res = model.infer(images, threshold=0.5, batch_size=5)
        assert res.predictions.shape == (12,)
        assert res.exited_early.shape == (12,)
        assert res.branch_entropy.shape == (12,)
        assert 0.0 <= res.early_exit_rate <= 1.0

    def test_threshold_zero_never_exits(self):
        model = BranchyLeNet(rng=0)
        images = np.random.default_rng(0).random((8, 1, 28, 28)).astype(np.float32)
        res = model.infer(images, threshold=0.0)
        assert res.early_exit_rate == 0.0

    def test_threshold_huge_always_exits(self):
        model = BranchyLeNet(rng=0)
        images = np.random.default_rng(0).random((8, 1, 28, 28)).astype(np.float32)
        res = model.infer(images, threshold=100.0)
        assert res.early_exit_rate == 1.0

    def test_exit_rate_monotone_in_threshold(self):
        model = BranchyLeNet(rng=0)
        images = np.random.default_rng(1).random((50, 1, 28, 28)).astype(np.float32)
        rates = [
            model.infer(images, threshold=t).early_exit_rate
            for t in (0.01, 0.1, 0.5, 1.5, 2.3)
        ]
        assert rates == sorted(rates)

    def test_early_exit_predictions_match_branch(self):
        """Samples flagged exited_early must carry the branch's argmax."""
        model = BranchyLeNet(rng=0)
        images = np.random.default_rng(2).random((20, 1, 28, 28)).astype(np.float32)
        res = model.infer(images, threshold=1.8)
        from repro.nn import no_grad

        with no_grad():
            shared = model.stem(Tensor(images))
            branch_pred = model.branch(shared).data.argmax(axis=1)
        early = res.exited_early
        assert np.array_equal(res.predictions[early], branch_pred[early])

    def test_branch_entropies_match_infer(self):
        model = BranchyLeNet(rng=0)
        images = np.random.default_rng(3).random((10, 1, 28, 28)).astype(np.float32)
        ents = model.branch_entropies(images)
        res = model.infer(images, threshold=0.3)
        assert np.allclose(ents, res.branch_entropy, atol=1e-6)

    def test_default_threshold_used(self):
        model = BranchyLeNet(rng=0, entropy_threshold=99.0)
        images = np.random.default_rng(4).random((4, 1, 28, 28)).astype(np.float32)
        assert model.infer(images).early_exit_rate == 1.0

    @pytest.mark.parametrize("bad", [np.nan, -1e-3], ids=["nan", "negative"])
    def test_threshold_must_be_non_negative(self, bad):
        """A NaN threshold once built a model whose ``infer`` sent no
        sample out early, whatever its entropy."""
        with pytest.raises(ValueError, match="entropy threshold must be >= 0"):
            BranchyLeNet(rng=0, entropy_threshold=bad)


class TestTraining:
    def test_joint_training_improves_both_exits(self, tiny_mnist):
        from repro.core import TrainConfig
        from repro.core.trainer import fit_classifier

        model = BranchyLeNet(rng=0)
        train, test = tiny_mnist["train"], tiny_mnist["test"]
        fit_classifier(model, train, TrainConfig(epochs=8, batch_size=64), rng=0)
        from repro.nn import no_grad

        with no_grad():
            shared = model.stem(Tensor(test.images))
            branch_acc = (model.branch(shared).data.argmax(1) == test.labels).mean()
            trunk_acc = (model.trunk(shared).data.argmax(1) == test.labels).mean()
        assert branch_acc > 0.7
        assert trunk_acc > 0.7
