"""Entropy-gate edge cases: empty batches and all-hard batches.

Regression tests for the router/backend paths that used to allocate an
empty easy sub-batch (or a full-size gather copy) when the gate decided
unanimously: an empty batch must short-circuit without touching the
model, and an all-hard batch must run whole rather than fancy-indexing
into an identical copy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.branchynet import BranchyLeNet
from repro.serving.router import EntropyRouter, RouteDecision


@pytest.fixture(scope="module")
def branchy():
    return BranchyLeNet(rng=0, entropy_threshold=1.0)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(0).normal(size=(32, 1, 28, 28)).astype(np.float32)


class _GateCounter:
    """Wraps branch_gate to count model invocations."""

    def __init__(self, model):
        self._model = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def branch_gate(self, images, *args, **kwargs):
        self.calls += 1
        return self._model.branch_gate(images, *args, **kwargs)


class TestEmptyBatch:
    def test_router_split_empty_without_model_call(self, branchy):
        counter = _GateCounter(branchy)
        router = EntropyRouter(counter)
        decision = router.split(np.zeros((0, 1, 28, 28), dtype=np.float32))
        assert counter.calls == 0  # short-circuited: no zero-sample plan traced
        assert decision.n_easy == 0 and decision.n_hard == 0
        assert decision.easy.shape == (0,)
        assert decision.entropy.shape == (0,)
        assert decision.predictions.shape == (0,)
        assert decision.easy_indices.size == 0 and decision.hard_indices.size == 0

    def test_infer_empty_batch(self, branchy):
        result = branchy.infer(np.zeros((0, 1, 28, 28), dtype=np.float32))
        assert result.predictions.shape == (0,)
        assert result.exited_early.shape == (0,)
        assert result.early_exit_rate == 0.0

    def test_stem_features_empty_batch(self, branchy):
        feats = branchy.stem_features(np.zeros((0, 1, 28, 28), dtype=np.float32))
        assert feats.shape == (0, 4, 12, 12)
        assert feats.dtype == np.float32


class TestAllHardBatch:
    def test_infer_all_hard_matches_reference(self, branchy, images):
        # threshold=-1: nothing exits early → every sample runs the trunk.
        gated = branchy.infer(images, threshold=-1.0)
        reference = branchy.infer(images, threshold=-1.0, fastpath=False)
        np.testing.assert_array_equal(gated.predictions, reference.predictions)
        assert not gated.exited_early.any()

    def test_infer_all_easy_never_runs_trunk(self, branchy, images):
        gated = branchy.infer(images, threshold=np.inf)
        assert gated.exited_early.all()
        np.testing.assert_array_equal(
            gated.predictions,
            branchy.branch_gate(images)[1],
        )

    def test_backend_all_hard_decision_avoids_gather(self, branchy, images):
        from repro.serving.backends import BranchyNetBackend
        from repro.hw.devices import raspberry_pi4

        backend = BranchyNetBackend(branchy, raspberry_pi4())
        entropy, branch_preds = branchy.branch_gate(images)
        all_hard = RouteDecision(
            easy=np.zeros(len(images), dtype=bool),
            entropy=entropy,
            predictions=branch_preds,
        )
        preds = backend.predict(images, all_hard)
        np.testing.assert_array_equal(
            preds, branchy.infer(images, threshold=-1.0).predictions
        )

    def test_backend_all_easy_decision_uses_branch_labels(self, branchy, images):
        from repro.serving.backends import BranchyNetBackend
        from repro.hw.devices import raspberry_pi4

        backend = BranchyNetBackend(branchy, raspberry_pi4())
        entropy, branch_preds = branchy.branch_gate(images)
        all_easy = RouteDecision(
            easy=np.ones(len(images), dtype=bool),
            entropy=entropy,
            predictions=branch_preds,
        )
        np.testing.assert_array_equal(backend.predict(images, all_easy), branch_preds)

    def test_hybrid_all_hard_converts_whole_batch(self, images):
        from repro.hw.devices import raspberry_pi4
        from repro.models.autoencoder import ConvertingAutoencoder
        from repro.models.lightweight import LightweightClassifier
        from repro.core.cbnet import CBNet
        from repro.serving.backends import HybridBackend

        branchy = BranchyLeNet(rng=1, entropy_threshold=1.0)
        cbnet = CBNet(
            autoencoder=ConvertingAutoencoder.for_dataset("mnist", rng=1),
            classifier=LightweightClassifier.from_branchynet(branchy),
        )
        backend = HybridBackend(cbnet, branchy, raspberry_pi4())
        entropy, branch_preds = branchy.branch_gate(images)
        all_hard = RouteDecision(
            easy=np.zeros(len(images), dtype=bool),
            entropy=entropy,
            predictions=branch_preds,
        )
        np.testing.assert_array_equal(
            backend.predict(images, all_hard), cbnet.predict(images)
        )


class TestServedAllHardTrace:
    def test_server_survives_all_hard_stream(self, images):
        # A near-zero threshold routes every request down the hard path;
        # the serving loop must not allocate empty easy sub-batches.
        from repro.cluster import Cluster
        from repro.hw.devices import raspberry_pi4
        from repro.serving.backends import BranchyNetBackend
        from repro.sim.records import ROUTE_EASY, ROUTE_HARD

        branchy = BranchyLeNet(rng=0, entropy_threshold=1e-9)
        backend = BranchyNetBackend(branchy, raspberry_pi4())
        node = Cluster([backend], max_batch_size=8, max_wait_s=0.002)
        arrival_s = np.cumsum(np.full(len(images), 0.002))
        report, log = node.serve_log(images, arrival_s)
        assert log.route_count(ROUTE_HARD) == report.n_served == len(images)
        assert log.route_count(ROUTE_EASY) == 0
