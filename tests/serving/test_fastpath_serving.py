"""Serving loop on the compiled fast path: ragged batches, buffer reuse.

Uses untrained models (weights don't matter for plumbing equivalence) so
these tests run without the session-scoped trained pipeline.
"""

import numpy as np

from repro.cluster import Cluster
from repro.hw.devices import raspberry_pi4
from repro.models import BranchyLeNet, LeNet
from repro.nn.fastpath import ConvStep
from repro.serving.backends import BranchyNetBackend, LeNetBackend

rng = np.random.default_rng(42)


def _conv_cols_buffers(model):
    """All im2col column buffers across a model's cached plans."""
    plans = model.__dict__.get("_fastpath_plans", {})
    return {
        (key, i): step.cols
        for key, plan in plans.items()
        for i, step in enumerate(plan.steps)
        if isinstance(step, ConvStep)
    }


def test_backend_predict_zero_alloc_across_ragged_batches():
    """Steady-state serving performs no per-batch conv-buffer allocations:
    the same arena buffers (by identity) serve full and ragged batches."""
    backend = BranchyNetBackend(BranchyLeNet(rng=0, entropy_threshold=0.5), raspberry_pi4())
    backend.warmup(batch_size=64)
    model = backend.branchynet
    buffers = _conv_cols_buffers(model)
    assert buffers, "warmup should have compiled conv plans"
    allocs = {key: plan.arena.allocation_count
              for key, plan in model.__dict__["_fastpath_plans"].items()}

    for n in (64, 64, 17, 1, 64):  # steady, ragged, singleton, steady
        images = rng.random((n, 1, 28, 28), dtype=np.float32)
        decision = backend.route(images)
        preds = backend.predict(images, decision)
        assert preds.shape == (n,)

    after = _conv_cols_buffers(model)
    for key, buf in buffers.items():
        assert after[key] is buf, f"conv column buffer reallocated for {key}"
    for key, plan in model.__dict__["_fastpath_plans"].items():
        assert plan.arena.allocation_count == allocs[key], key


def test_server_fastpath_predictions_match_reference():
    """End-to-end one-replica run (micro-batching => ragged final
    batches): served predictions equal the reference autograd path."""
    model = LeNet(rng=1)
    backend = LeNetBackend(model, raspberry_pi4())
    images = rng.random((83, 1, 28, 28), dtype=np.float32)
    arrival_s = np.sort(rng.random(83)).astype(np.float64)
    node = Cluster([backend], max_batch_size=16, max_wait_s=0.01)
    # Feeding the reference-path predictions as "labels" turns the report's
    # accuracy into an equivalence check: every served prediction must
    # match the autograd path (modulo argmax ties on near-equal logits).
    ref = model.predict(images, fastpath=False)
    report = node.serve(images, arrival_s, labels=ref, scenario="fastpath-equivalence")
    assert report.accuracy > 0.99  # <1% argmax ties between GEMM orders


def test_server_branchynet_ragged_batches_match_reference():
    backend = BranchyNetBackend(BranchyLeNet(rng=2, entropy_threshold=1.5), raspberry_pi4())
    images = rng.random((45, 1, 28, 28), dtype=np.float32)
    arrival_s = np.sort(rng.random(45)).astype(np.float64)
    node = Cluster([backend], max_batch_size=8, max_wait_s=0.01)
    ref = backend.branchynet.infer(images, threshold=1.5, fastpath=False).predictions
    report = node.serve(images, arrival_s, labels=ref, scenario="fastpath-branchy")
    assert report.accuracy > 0.99  # <1% argmax ties between GEMM orders
