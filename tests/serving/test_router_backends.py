"""Entropy router + model backends against a real trained pipeline."""

import copy

import numpy as np
import pytest

from repro.hw.devices import raspberry_pi4
from repro.hw.latency import branchynet_expected_latency, cbnet_latency
from repro.serving.backends import (
    BatchTiming,
    BranchyNetBackend,
    CBNetBackend,
    HybridBackend,
    LeNetBackend,
)
from repro.serving.router import EntropyRouter


class TestBatchTiming:
    def test_affine_composition(self):
        t = BatchTiming(overhead_s=0.01, per_item_s=0.002, gate_s=0.001,
                        per_hard_extra_s=0.005)
        assert t.batch_service_s(4, 1) == pytest.approx(0.01 + 0.001 + 4 * 0.002 + 0.005)

    def test_batching_amortizes_overhead(self):
        t = BatchTiming(overhead_s=0.01, per_item_s=0.002)
        per_item_batched = t.batch_service_s(16) / 16
        assert per_item_batched < t.batch_service_s(1)

    def test_invalid_args(self):
        t = BatchTiming(overhead_s=0.01, per_item_s=0.002)
        with pytest.raises(ValueError):
            t.batch_service_s(0)
        with pytest.raises(ValueError):
            t.batch_service_s(2, 3)
        with pytest.raises(ValueError):
            t.batch_service_s(2, -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("field", ["overhead_s", "per_item_s", "gate_s", "per_hard_extra_s"])
    def test_fields_must_be_finite_and_non_negative(self, field, bad):
        """A negative per-item cost used to complete requests before
        they arrived; NaN passed silently."""
        fields = {"overhead_s": 0.01, "per_item_s": 0.002, field: bad}
        with pytest.raises(ValueError, match=field):
            BatchTiming(**fields)


def _gated(model, threshold):
    """The model with its exit threshold set to ``threshold``."""
    gated = copy.copy(model)
    gated.entropy_threshold = threshold
    return gated


class TestEntropyRouter:
    def test_split_matches_model_gate(self, trained_pipeline):
        test = trained_pipeline.datasets["test"]
        images = test.images[:128]
        router = EntropyRouter(trained_pipeline.branchynet)
        decision = router.split(images)
        infer = trained_pipeline.branchynet.infer(images)
        np.testing.assert_array_equal(decision.easy, infer.exited_early)
        assert decision.n_easy + decision.n_hard == 128

    def test_threshold_extremes(self, trained_pipeline):
        images = trained_pipeline.datasets["test"].images[:32]
        all_hard = EntropyRouter(_gated(trained_pipeline.branchynet, 0.0))
        assert all_hard.split(images).n_easy == 0
        all_easy = EntropyRouter(_gated(trained_pipeline.branchynet, 1e9))
        assert all_easy.split(images).n_hard == 0

    def test_negative_threshold_rejected(self, trained_pipeline):
        with pytest.raises(ValueError):
            EntropyRouter(_gated(trained_pipeline.branchynet, -0.1))


class TestBackends:
    def test_cbnet_backend_static_and_consistent(self, trained_pipeline):
        device = raspberry_pi4()
        backend = CBNetBackend(trained_pipeline.cbnet, device)
        images = trained_pipeline.datasets["test"].images[:64]
        assert backend.route(images) is None
        # Single-item batch time reproduces the per-image latency model.
        assert backend.batch_service_s(1) == pytest.approx(
            cbnet_latency(trained_pipeline.cbnet, device).total
        )
        np.testing.assert_array_equal(
            backend.predict(images), trained_pipeline.cbnet.predict(images)
        )

    def test_branchynet_backend_paths_match_latency_model(self, trained_pipeline):
        device = raspberry_pi4()
        backend = BranchyNetBackend(trained_pipeline.branchynet, device)
        lat = branchynet_expected_latency(trained_pipeline.branchynet, device, 0.5)
        assert backend.batch_service_s(1, 0) == pytest.approx(lat.early_path)
        assert backend.batch_service_s(1, 1) == pytest.approx(lat.full_path)
        images = trained_pipeline.datasets["test"].images[:64]
        np.testing.assert_array_equal(
            backend.predict(images),
            trained_pipeline.branchynet.infer(images).predictions,
        )

    def test_hybrid_backend_uses_cbnet_on_hard(self, trained_pipeline):
        device = raspberry_pi4()
        backend = HybridBackend(
            trained_pipeline.cbnet, trained_pipeline.branchynet, device
        )
        images = trained_pipeline.datasets["test"].images[:64]
        decision = backend.route(images)
        preds = backend.predict(images)
        hard = decision.hard_indices
        if hard.size:
            np.testing.assert_array_equal(
                preds[hard], trained_pipeline.cbnet.predict(images[hard])
            )
        easy = decision.easy_indices
        branch_preds = trained_pipeline.branchynet.infer(
            images, threshold=float("inf")
        ).predictions
        np.testing.assert_array_equal(preds[easy], branch_preds[easy])

    def test_lenet_backend_predicts(self, trained_lenet, trained_pipeline):
        device = raspberry_pi4()
        backend = LeNetBackend(trained_lenet, device)
        images = trained_pipeline.datasets["test"].images[:32]
        np.testing.assert_array_equal(
            backend.predict(images), trained_lenet.predict(images)
        )

    def test_mean_service_reflects_exit_rate(self, trained_pipeline):
        device = raspberry_pi4()
        backend = BranchyNetBackend(trained_pipeline.branchynet, device)
        assert backend.mean_service_s(exit_rate=1.0) < backend.mean_service_s(
            exit_rate=0.0
        )
