"""The table pass in 128-row calls against one call over the whole pool.

``InferenceTable.build`` and the gate memo hand the image pool to the
backend in calls of at most 128 rows, so the fastpath plans the pass
leaves on a model (and their arenas, for the rest of the process) stay
that small.  On the FAST MNIST pool every column must equal the table
one whole-pool call builds, entropy included, bit for bit.
"""

import numpy as np
import pytest

from repro.experiments.common import FAST, lenet_for, pipeline_for
from repro.hw.devices import gci_cpu
from repro.models import BranchyLeNet
from repro.serving.backends import (
    BranchyNetBackend,
    CBNetBackend,
    HybridBackend,
    InferenceBackend,
    LeNetBackend,
)
from repro.serving.router import RouteDecision
from repro.sim import oracle
from repro.sim.oracle import InferenceTable, clear_oracle_cache

CHUNK = 128
COLUMNS = ("easy_preds", "hard_preds", "entropy", "easy")


@pytest.fixture(scope="module")
def fast():
    """The FAST MNIST pipeline, its baseline LeNet and its test pool."""
    artifacts = pipeline_for("mnist", FAST, seed=0)
    lenet = lenet_for("mnist", FAST, seed=0)
    return artifacts, lenet, artifacts.datasets["test"].images


BACKENDS = {
    "cbnet": lambda art, lenet: CBNetBackend(art.cbnet, gci_cpu()),
    "branchynet": lambda art, lenet: BranchyNetBackend(art.branchynet, gci_cpu()),
    "hybrid": lambda art, lenet: HybridBackend(art.cbnet, art.branchynet, gci_cpu()),
    "lenet": lambda art, lenet: LeNetBackend(lenet, gci_cpu()),
}


def _models(art, lenet):
    return (art.cbnet.autoencoder, art.cbnet.classifier, art.branchynet, lenet)


def _fresh_table(backend, images, models):
    """A table built on models holding no plan and from no memoized gate."""
    for model in models:
        model.clear_inference_plans()
    clear_oracle_cache()
    return InferenceTable.build(backend, images)


def _plan_rows(models):
    """Capacity of every cached fastpath plan on ``models``."""
    return {
        (type(model).__name__, key): plan.capacity
        for model in models
        for key, plan in model.__dict__.get("_fastpath_plans", {}).items()
    }


@pytest.mark.parametrize("name", list(BACKENDS))
def test_chunked_table_equals_one_call(name, fast, monkeypatch):
    art, lenet, images = fast
    models = _models(art, lenet)
    backend = BACKENDS[name](art, lenet)
    assert oracle._CHUNK_ROWS == CHUNK and images.shape[0] > 4 * CHUNK
    chunked = _fresh_table(backend, images, models)
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", images.shape[0])
    whole = _fresh_table(backend, images, models)
    for column in COLUMNS:
        a, b = getattr(chunked, column), getattr(whole, column)
        if b is None:
            assert a is None, column
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, column
        assert (a == b).all(), f"{column}: {int((a != b).sum())} rows differ"
    if chunked.routed:
        assert chunked.easy.any() and not chunked.easy.all()


@pytest.mark.parametrize("name", list(BACKENDS))
def test_table_pass_leaves_plans_of_at_most_128_rows(name, fast):
    art, lenet, images = fast
    models = _models(art, lenet)
    _fresh_table(BACKENDS[name](art, lenet), images, models)
    rows = _plan_rows(models)
    assert rows and max(rows.values()) <= CHUNK, rows
    clear_oracle_cache()


class _Spy(InferenceBackend):
    """A routed toy backend that records every call's row count."""

    def __init__(self, model, routed=True):
        super().__init__(timing=None)
        self.router = self if routed else None
        self.branchynet = model
        self.threshold = 0.5
        self.calls = []

    def route(self, images):
        self.calls.append(("route", images.shape[0]))
        if self.router is None:
            return None
        entropy = images[:, 0, 0, 0].copy()
        return RouteDecision(entropy < self.threshold, entropy, np.zeros(len(entropy), int))

    def predict(self, images, decision=None):
        self.calls.append(("predict", images.shape[0]))
        hard = decision is not None and not decision.easy.all()
        return (images[:, 0, 0, 0] * 100).astype(np.int64) + 1000 * hard


@pytest.mark.parametrize("n, sizes", [(600, [128] * 4 + [88]), (256, [128, 128]), (5, [5])])
def test_calls_hold_at_most_128_rows_and_the_last_the_remainder(n, sizes):
    images = np.random.default_rng(0).random((n, 1, 2, 2), dtype=np.float32)
    spy = _Spy(BranchyLeNet(rng=0))
    clear_oracle_cache()
    table = InferenceTable.build(spy, images)
    assert [rows for kind, rows in spy.calls if kind == "route"] == sizes
    # One all-easy and one all-hard call per chunk.
    assert [rows for kind, rows in spy.calls if kind == "predict"] == [
        rows for rows in sizes for _ in range(2)
    ]
    first = images[:, 0, 0, 0]
    assert (table.entropy == first).all() and (table.easy == (first < 0.5)).all()
    assert (table.easy_preds == (first * 100).astype(np.int64)).all()
    assert (table.hard_preds == table.easy_preds + 1000).all()
    clear_oracle_cache()


def test_an_empty_pool_is_one_empty_call():
    spy = _Spy(BranchyLeNet(rng=0), routed=False)
    table = InferenceTable.build(spy, np.zeros((0, 1, 2, 2), dtype=np.float32))
    assert spy.calls == [("route", 0), ("predict", 0)]
    assert table.n_samples == 0 and not table.routed
