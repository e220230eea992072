"""Differential test: a one-replica ``Cluster`` is one queue under every policy.

With one replica there is nothing to balance, so every policy in
``POLICY_NAMES`` must replay a fault-free trace the same way: the same
value in every ``RequestLog`` column, and the same ``ClusterReport``
apart from its ``policy`` name.  This is why single-node callers (the
serving comparison, the offload study's cloud tier) name no policy.

The sweep covers 20 seeded configurations (batch size, wait, load) for
each of {static, routed} toy backend × {single-class, 3-class priority,
3-class fifo} × cache {off, 16}, plus one oracle-backend trace; each
policy's run is compared with the round-robin run of the same trace.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import RoutedSumBackend, SumBackend

from repro.cluster import Cluster
from repro.cluster.policies import POLICY_NAMES
from repro.serving.arrivals import poisson_arrivals
from repro.serving.classes import DEFAULT_CLASSES
from repro.sim import oracle_backend
from repro.sim.records import ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD, RequestLog

SEEDS = range(20)
N_REQUESTS = 240
POOL = 48  # distinct images: small enough that repeats hit the cache
REFERENCE = "round-robin"
POLICIES = tuple(p for p in POLICY_NAMES if p != REFERENCE)
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


def serve_under(policies, backend, payload, arrival_s, labels, mode, codes, **kwargs):
    """Replay one trace on a one-replica cluster per policy: (report, log) each."""
    if mode != "single":
        kwargs.update(classes=DEFAULT_CLASSES, scheduler=mode)
    request_classes = codes if mode != "single" else None
    return [
        Cluster([backend], policy=policy, **kwargs).serve_log(
            payload, arrival_s, labels=labels, request_classes=request_classes
        )
        for policy in policies
    ]


def assert_parity(reference, other):
    (report, log), (oreport, olog) = reference, other
    for column in RequestLog.__slots__:
        np.testing.assert_array_equal(
            getattr(log, column), getattr(olog, column), err_msg=column
        )
    cached = log.route == ROUTE_CACHED
    assert (log.replica_id == np.where(cached, -1, 0)).all()
    for f in dataclasses.fields(report):
        if f.name == "policy":
            continue
        a, b = getattr(report, f.name), getattr(oreport, f.name)
        if isinstance(a, float) and math.isnan(a):
            assert isinstance(b, float) and math.isnan(b), f.name
        else:
            assert a == b, f"{f.name}: {REFERENCE}={a!r} {oreport.policy}={b!r}"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("cache", [0, 16])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_one_replica_is_policy_blind(backend_name, mode, cache, policy):
    for seed in SEEDS:
        pool, ids, arrival_s, codes, labels, knobs = make_trace(seed)
        backend = BACKENDS[backend_name]()
        reference, other = serve_under(
            (REFERENCE, policy), backend, pool[ids], arrival_s, labels, mode, codes,
            cache_capacity=cache, **knobs,
        )
        try:
            assert_parity(reference, other)
        except AssertionError as err:
            raise AssertionError(f"seed {seed} knobs {knobs}: {err}") from None


@pytest.mark.parametrize("policy", POLICIES)
def test_oracle_backend_is_policy_blind(policy):
    pool, ids, arrival_s, codes, labels, knobs = make_trace(7)
    backend = oracle_backend(RoutedSumBackend(), pool)
    reference, other = serve_under(
        (REFERENCE, policy), backend, ids, arrival_s, labels, "priority", codes,
        cache_capacity=16, **knobs,
    )
    assert_parity(reference, other)
    report, log = reference
    assert report.n_cached > 0
    assert log.route_count(ROUTE_EASY) > 0 and log.route_count(ROUTE_HARD) > 0
