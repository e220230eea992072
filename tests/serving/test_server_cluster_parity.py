"""Differential test: ``Server`` against a one-replica round-robin ``Cluster``.

Both engines replay the same single-node queue — result cache, micro-
batcher or worker-gated priority batcher, one worker, backend routing —
so on any fault-free trace they must write the same value to every
``RequestLog`` column.  The one column allowed to differ is
``replica_id``: the cluster names the node that served each request.

The sweep covers 20 seeded configurations (batch size, wait, load) for
each of {static, routed} toy backend × {single-class, 3-class priority,
3-class fifo} × cache {off, 16}, plus one oracle-backend trace.  The
``ServingReport`` columns that ``ClusterReport`` also carries are
compared too, and the single-node columns (batch histogram, easy/hard
counts) are checked against what the cluster's log implies.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.serving.arrivals import poisson_arrivals
from repro.serving.backends import BatchTiming, InferenceBackend
from repro.serving.classes import DEFAULT_CLASSES
from repro.serving.engine import Server
from repro.serving.router import RouteDecision
from repro.sim import oracle_backend
from repro.sim.records import ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD, RequestLog

SEEDS = range(20)
N_REQUESTS = 240
POOL = 48  # distinct images: small enough that repeats hit the cache
COLUMNS = tuple(c for c in RequestLog.__slots__ if c != "replica_id")
#: Report columns both engines compute from the same log.
SHARED_FIELDS = (
    "n_requests",
    "n_cached",
    "duration_s",
    "throughput_rps",
    "arrival_rate_hz",
    "mean_s",
    "p50_s",
    "p95_s",
    "p99_s",
    "max_s",
    "mean_batch_size",
    "cache_hit_rate",
    "accuracy",
    "class_reports",
)


class SumBackend(InferenceBackend):
    """Deterministic toy model: label = pixel-sum mod 10."""

    name = "sum"

    def __init__(self):
        super().__init__(BatchTiming(overhead_s=0.001, per_item_s=0.001))

    def predict(self, images, decision=None):
        return (images.reshape(images.shape[0], -1).sum(axis=1)).astype(np.int64) % 10


class RoutedSumBackend(SumBackend):
    """Toy dynamic backend: images with mean > 0.5 take the 4x hard path."""

    name = "routed-sum"

    def __init__(self):
        super().__init__()
        self.timing = BatchTiming(
            overhead_s=0.001, per_item_s=0.001, gate_s=0.0005, per_hard_extra_s=0.003
        )

    def route(self, images):
        means = images.reshape(images.shape[0], -1).mean(axis=1)
        return RouteDecision(easy=means <= 0.5, entropy=means)


BACKENDS = {"static": SumBackend, "routed": RoutedSumBackend}
MODES = ("single", "priority", "fifo")


def make_trace(seed):
    """A seeded trace with repeats, a random load, and class codes."""
    rng = np.random.default_rng(seed)
    pool = rng.random((POOL, 1, 4, 4)).astype(np.float32)
    ids = rng.integers(0, POOL, N_REQUESTS)
    arrival_s = poisson_arrivals(float(rng.uniform(150.0, 1500.0)), N_REQUESTS, rng=rng)
    codes = rng.integers(0, len(DEFAULT_CLASSES), N_REQUESTS)
    knobs = dict(
        max_batch_size=int(rng.integers(1, 33)),
        max_wait_s=float(rng.choice([0.0, rng.uniform(0.0, 0.004)])),
    )
    labels = (pool[ids].reshape(N_REQUESTS, -1).sum(axis=1)).astype(np.int64) % 10
    return pool, ids, arrival_s, codes, labels, knobs


def serve_both(backend, payload, arrival_s, labels, mode, codes, **kwargs):
    """Replay one trace through both engines; return both reports and logs."""
    if mode != "single":
        kwargs.update(classes=DEFAULT_CLASSES, scheduler=mode)
    request_classes = codes if mode != "single" else None
    report, log = Server(backend, **kwargs).serve_log(
        payload, arrival_s, labels=labels, request_classes=request_classes
    )
    cluster = Cluster([backend], policy="round-robin", **kwargs)
    creport, clog = cluster.serve_log(
        payload, arrival_s, labels=labels, request_classes=request_classes
    )
    return report, log, creport, clog


def assert_parity(report, log, creport, clog):
    for column in COLUMNS:
        np.testing.assert_array_equal(
            getattr(log, column), getattr(clog, column), err_msg=column
        )
    cached = clog.route == ROUTE_CACHED
    assert (clog.replica_id == np.where(cached, -1, 0)).all()
    for name in SHARED_FIELDS:
        a, b = getattr(report, name), getattr(creport, name)
        if isinstance(a, float) and math.isnan(a):
            assert isinstance(b, float) and math.isnan(b), name
        else:
            assert a == b, f"{name}: server={a!r} cluster={b!r}"
    # The single-node columns follow from the cluster's log and report.
    batched = clog.batch_size[~cached].tolist()
    histogram = {k: c // k for k, c in sorted(Counter(batched).items())}
    assert report.batch_histogram == histogram
    assert report.n_easy == clog.route_count(ROUTE_EASY)
    assert report.n_hard == clog.route_count(ROUTE_HARD)
    assert report.utilization == pytest.approx(creport.utilization, rel=1e-12)


@pytest.mark.parametrize("cache", [0, 16])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_server_matches_one_replica_cluster(backend_name, mode, cache):
    for seed in SEEDS:
        pool, ids, arrival_s, codes, labels, knobs = make_trace(seed)
        backend = BACKENDS[backend_name]()
        got = serve_both(
            backend, pool[ids], arrival_s, labels, mode, codes,
            cache_capacity=cache, **knobs,
        )
        try:
            assert_parity(*got)
        except AssertionError as err:
            raise AssertionError(f"seed {seed} knobs {knobs}: {err}") from None


def test_oracle_backend_matches_one_replica_cluster():
    pool, ids, arrival_s, codes, labels, knobs = make_trace(7)
    backend = oracle_backend(RoutedSumBackend(), pool)
    report, log, creport, clog = serve_both(
        backend, ids, arrival_s, labels, "priority", codes, cache_capacity=16, **knobs
    )
    assert_parity(report, log, creport, clog)
    assert report.n_cached > 0 and report.n_easy > 0 and report.n_hard > 0
