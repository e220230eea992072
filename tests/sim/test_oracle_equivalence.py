"""Live-vs-oracle parity: the acceptance contract of `repro.sim`.

The oracle replaces in-loop model calls with precomputed table lookups;
these tests prove the replacement is *observationally invisible* under
fixed seeds — served accuracy, entropy-gate routing decisions, cache hit
rates, and p50/p95/p99 all match the live engines bit for bit — across
a serving, a cluster, and an offload scenario.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.cluster.admission import AdmissionController
from repro.cluster.engine import Cluster
from repro.hw.devices import gci_cpu, raspberry_pi4
from repro.hw.network import wifi
from repro.models import BranchyLeNet, LeNet
from repro.offload.engine import EdgeTier, cloud_server_for
from repro.offload.policies import EntropyGated, TensorCodec
from repro.serving.arrivals import poisson_arrivals, zipf_popularity
from repro.serving.backends import BranchyNetBackend, LeNetBackend
from repro.sim import RequestLog, offload_oracle, oracle_backend
from repro.sim.records import ROUTE_EASY, ROUTE_HARD

N_POOL = 48
N_REQUESTS = 400


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(0)
    images = rng.random((N_POOL, 1, 28, 28), dtype=np.float32)
    labels = rng.integers(0, 10, N_POOL)
    return images, labels


@pytest.fixture(scope="module")
def branchy(pool):
    images, _ = pool
    model = BranchyLeNet(rng=0)
    # Put the gate threshold inside the entropy distribution so both
    # routes genuinely occur (an untrained branch is uniformly unsure).
    # Use the midpoint of the *widest gap* between adjacent entropies in
    # the middle band: compiled plans are shape-specialized, so the same
    # sample's entropy can differ by ~1 ulp between batch sizes — the
    # threshold must not sit within rounding noise of any sample.
    entropy = np.sort(model.branch_gate(images)[0])
    lo, hi = int(0.3 * len(entropy)), int(0.7 * len(entropy))
    gaps = np.diff(entropy[lo:hi])
    i = lo + int(np.argmax(gaps))
    model.entropy_threshold = float(0.5 * (entropy[i] + entropy[i + 1]))
    return model


@pytest.fixture(scope="module")
def stream(pool):
    _, labels = pool
    ids = zipf_popularity(N_POOL, N_REQUESTS, exponent=0.9, rng=np.random.default_rng(1))
    arrival_s = poisson_arrivals(1500.0, N_REQUESTS, rng=np.random.default_rng(2))
    return ids, arrival_s, labels[ids]


def assert_reports_equal(live, orc, skip=()):
    """Field-by-field dataclass equality (NaN == NaN)."""
    for f in dataclasses.fields(live):
        if f.name in skip:
            continue
        a, b = getattr(live, f.name), getattr(orc, f.name)
        if isinstance(a, float) and math.isnan(a):
            assert isinstance(b, float) and math.isnan(b), f.name
        else:
            assert a == b, f"{f.name}: live={a!r} oracle={b!r}"


class TestServingParity:
    def test_routed_backend_report_identical(self, pool, branchy, stream):
        images, _ = pool
        ids, arrival_s, labels = stream

        def build(backend):
            return Cluster([backend], max_batch_size=8, max_wait_s=0.003, cache_capacity=32)

        live_backend = BranchyNetBackend(branchy, raspberry_pi4())
        live = build(live_backend).serve(images[ids], arrival_s, labels=labels)
        orc, log = build(oracle_backend(live_backend, images)).serve_log(
            ids, arrival_s, labels=labels
        )
        assert_reports_equal(live, orc)
        # Both gate outcomes occurred.
        assert log.route_count(ROUTE_EASY) > 0 and log.route_count(ROUTE_HARD) > 0
        assert orc.n_cached > 0  # the cache genuinely participated

    def test_per_request_records_identical(self, pool, branchy, stream):
        images, _ = pool
        ids, arrival_s, labels = stream
        backend = BranchyNetBackend(branchy, raspberry_pi4())

        def build(backend):
            return Cluster([backend], max_batch_size=32, max_wait_s=0.005, cache_capacity=16)

        _, live_log = build(backend).serve_log(images[ids], arrival_s, labels=labels)
        _, orc_log = build(oracle_backend(backend, images)).serve_log(
            ids, arrival_s, labels=labels
        )
        for column in RequestLog.__slots__:
            np.testing.assert_array_equal(
                getattr(live_log, column), getattr(orc_log, column), err_msg=column
            )

    def test_static_backend_report_identical(self, pool, stream):
        images, _ = pool
        ids, arrival_s, labels = stream
        backend = LeNetBackend(LeNet(rng=0), gci_cpu())
        live = Cluster([backend], max_batch_size=16, max_wait_s=0.005).serve(
            images[ids], arrival_s, labels=labels
        )
        orc = Cluster([oracle_backend(backend, images)], max_batch_size=16, max_wait_s=0.005).serve(
            ids, arrival_s, labels=labels
        )
        assert_reports_equal(live, orc)


class TestClusterParity:
    def test_heterogeneous_fleet_with_admission(self, pool, branchy, stream):
        images, _ = pool
        ids, arrival_s, labels = stream

        def build(backends):
            return Cluster(
                backends,
                policy="power-of-two",
                admission=AdmissionController(max_outstanding=10, policy="degrade"),
                slo_s=0.02,
                max_batch_size=8,
                max_wait_s=0.002,
                cache_capacity=32,
                rng=3,
            )

        live_backends = [
            BranchyNetBackend(branchy, raspberry_pi4()),
            BranchyNetBackend(branchy, gci_cpu()),
        ]
        live = build(live_backends).serve(images[ids], arrival_s, labels=labels)
        orc = build([oracle_backend(b, images) for b in live_backends]).serve(
            ids, arrival_s, labels=labels
        )
        assert_reports_equal(live, orc)
        # The scenario exercised what it claims to: routing, cache, degrade.
        assert orc.n_cached > 0
        assert orc.n_degraded > 0

    def test_mixed_fleet_rejected(self, pool, branchy):
        images, _ = pool
        backend = BranchyNetBackend(branchy, gci_cpu())
        with pytest.raises(ValueError, match="mix oracle and live"):
            Cluster([backend, oracle_backend(backend, images)])


class TestOffloadParity:
    @pytest.mark.parametrize("codec_name", ["float32", "uint8"])
    def test_entropy_gated_split(self, pool, branchy, stream, codec_name):
        images, _ = pool
        ids, arrival_s, labels = stream
        policy = EntropyGated()
        codec = TensorCodec(codec_name)

        live_cloud = cloud_server_for(
            policy, branchy, gci_cpu(), max_batch_size=8, max_wait_s=0.002
        )
        live = EdgeTier(
            branchy, raspberry_pi4(), wifi(), live_cloud, policy, codec=codec, rng=9
        ).serve(images[ids], arrival_s, labels=labels)

        oracle = offload_oracle(branchy, images)
        orc_cloud = cloud_server_for(
            policy,
            branchy,
            gci_cpu(),
            oracle=oracle,
            codec=codec,
            max_batch_size=8,
            max_wait_s=0.002,
        )
        orc = EdgeTier(
            branchy,
            raspberry_pi4(),
            wifi(),
            orc_cloud,
            policy,
            codec=codec,
            oracle=oracle,
            rng=9,
        ).serve(ids, arrival_s, labels=labels)

        assert_reports_equal(live, orc, skip=("cloud_report",))
        assert_reports_equal(live.cloud_report, orc.cloud_report)
        assert orc.n_offloaded > 0 and orc.n_local_easy > 0

    def test_oracle_edge_requires_oracle_cloud(self, pool, branchy):
        images, _ = pool
        policy = EntropyGated()
        live_cloud = cloud_server_for(policy, branchy, gci_cpu())
        with pytest.raises(TypeError, match="oracle"):
            EdgeTier(
                branchy,
                raspberry_pi4(),
                wifi(),
                live_cloud,
                policy,
                oracle=offload_oracle(branchy, images),
            )
