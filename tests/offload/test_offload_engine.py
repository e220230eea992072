"""EdgeTier end to end on toy (untrained) models: conservation, queues,
cloud composition (one-replica and fleet clusters), codecs, and
degradation."""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.engine import Cluster
from repro.hw.devices import gci_cpu, raspberry_pi4
from repro.hw.network import BandwidthTrace, NetworkLink, wifi
from repro.models.branchynet import BranchyLeNet
from repro.obs import Observer
from repro.offload.engine import (
    EdgeTier,
    RemoteTrunkBackend,
    cloud_server_for,
    offload_comparison_table,
)
from repro.offload.policies import (
    AlwaysLocal,
    AlwaysRemote,
    DeadlineAware,
    EntropyGated,
    TensorCodec,
)
from repro.serving.arrivals import poisson_arrivals


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(0)
    images = rng.normal(size=(200, 1, 28, 28)).astype(np.float32)
    labels = rng.integers(0, 10, 200)
    arrival_s = poisson_arrivals(250.0, 200, rng=1)
    return images, arrival_s, labels


@pytest.fixture(scope="module")
def branchy(stream):
    # Untrained model: pin the gate threshold at the median branch
    # entropy of the test stream, so roughly half the samples land on
    # each side and every policy exercises both paths.
    model = BranchyLeNet(rng=0, entropy_threshold=1.0)
    images, _, _ = stream
    model.entropy_threshold = float(np.median(model.branch_entropies(images)))
    return model


def _tier(branchy, policy, link=None, codec=None, cloud=None, **kwargs):
    link = link or wifi()
    cloud = cloud or cloud_server_for(
        policy, branchy, gci_cpu(), max_batch_size=8, max_wait_s=0.002
    )
    return EdgeTier(
        branchy, raspberry_pi4(), link, cloud, policy, codec=codec, rng=3, **kwargs
    )


class TestConservationAndRouting:
    def test_counts_partition_the_stream(self, branchy, stream):
        images, arrival_s, labels = stream
        report = _tier(branchy, EntropyGated()).serve(images, arrival_s, labels=labels)
        assert (
            report.n_local_easy + report.n_local_hard + report.n_offloaded
            == report.n_requests
            == 200
        )
        assert 0.0 < report.offload_rate < 1.0
        assert report.n_local_hard == 0  # gated: every hard sample ships
        assert np.isfinite(report.p95_s) and report.p95_s > 0

    def test_always_local_never_touches_the_link(self, branchy, stream):
        images, arrival_s, labels = stream
        report = _tier(branchy, AlwaysLocal()).serve(images, arrival_s, labels=labels)
        assert report.n_offloaded == 0
        assert report.uplink_bytes == 0
        assert report.radio_energy_j == 0.0
        assert np.isnan(report.network_mean_s) and np.isnan(report.cloud_mean_s)
        assert report.cloud_report is None

    def test_always_remote_ships_raw_images(self, branchy, stream):
        images, arrival_s, labels = stream
        report = _tier(branchy, AlwaysRemote()).serve(images, arrival_s, labels=labels)
        assert report.n_offloaded == report.n_requests
        assert report.uplink_bytes == 200 * 28 * 28 * 4
        assert report.edge_mean_s == 0.0 and report.edge_energy_j == 0.0
        assert report.cloud_report.n_requests == 200

    def test_gated_uplink_bytes_are_stem_payloads(self, branchy, stream):
        images, arrival_s, _ = stream
        report = _tier(branchy, EntropyGated()).serve(images, arrival_s)
        stem_elems = 4 * 12 * 12
        assert report.uplink_bytes == report.n_offloaded * stem_elems * 4

    def test_served_predictions_match_plain_inference(self, branchy, stream):
        # Lossless wire + per-request predictions == threshold-gated
        # BranchyNet inference, wherever each sample physically ran.
        images, arrival_s, _ = stream
        expected = branchy.infer(images).predictions
        policy = EntropyGated()
        cloud = cloud_server_for(policy, branchy, gci_cpu(), max_batch_size=8)
        tier = _tier(branchy, policy, cloud=cloud)
        report = tier.serve(images, arrival_s, labels=expected)
        assert report.accuracy == pytest.approx(1.0)


class TestClockAndQueues:
    def test_completions_never_precede_arrivals(self, branchy, stream):
        images, arrival_s, _ = stream
        for policy in (AlwaysLocal(), AlwaysRemote(), EntropyGated()):
            report = _tier(branchy, policy).serve(images, arrival_s)
            assert report.mean_s > 0
            assert report.max_s >= report.p99_s >= report.p95_s >= report.p50_s

    def test_deterministic_under_seed(self, branchy, stream):
        images, arrival_s, labels = stream
        lossy = NetworkLink(
            name="lossy", uplink_mbps=10.0, downlink_mbps=10.0,
            rtt_s=0.02, jitter_s=0.005, loss_rate=0.2,
        )
        reports = [
            _tier(branchy, EntropyGated(), link=lossy).serve(
                images, arrival_s, labels=labels
            )
            for _ in range(2)
        ]
        # Field-wise equality (the embedded cloud report's accuracy is
        # NaN — no labels are forwarded upstream — so dataclass == would
        # trip over NaN != NaN).
        a, b = reports
        assert replace(a, cloud_report=None) == replace(b, cloud_report=None)
        assert a.cloud_report.p99_s == b.cloud_report.p99_s
        assert a.cloud_report.duration_s == b.cloud_report.duration_s

    def test_empty_stream_rejected(self, branchy):
        tier = _tier(branchy, AlwaysLocal())
        with pytest.raises(ValueError, match="empty"):
            tier.serve(np.zeros((0, 1, 28, 28), np.float32), np.zeros(0))

    def test_mismatched_lengths_rejected(self, branchy):
        tier = _tier(branchy, AlwaysLocal())
        with pytest.raises(ValueError, match="arrival times"):
            tier.serve(np.zeros((3, 1, 28, 28), np.float32), np.zeros(2))

    def test_decreasing_arrivals_rejected(self, branchy):
        tier = _tier(branchy, AlwaysLocal())
        with pytest.raises(ValueError, match="non-decreasing"):
            tier.serve(np.zeros((2, 1, 28, 28), np.float32), np.array([1.0, 0.5]))

    def test_slow_uplink_queues_offloads(self, branchy, stream):
        # 0.05 Mbps: a 9216-byte stem payload takes ~1.5 s to serialize,
        # so consecutive offloads must queue behind one another.
        images, arrival_s, _ = stream
        crawl = NetworkLink(
            name="crawl", uplink_mbps=0.05, downlink_mbps=10.0, rtt_s=0.0
        )
        report = _tier(branchy, EntropyGated(), link=crawl).serve(
            images[:40], arrival_s[:40]
        )
        if report.n_offloaded >= 2:
            # Mean network time must exceed one serialization: queueing.
            one_tx = crawl.serialization_s(report.uplink_bytes // report.n_offloaded)
            assert report.network_mean_s > one_tx


class TestCloudComposition:
    def test_cluster_as_cloud_tier(self, branchy, stream):
        images, arrival_s, labels = stream
        backends = [
            RemoteTrunkBackend(branchy, gci_cpu()),
            RemoteTrunkBackend(branchy, gci_cpu()),
        ]
        cluster = Cluster(backends, policy="least-outstanding", slo_s=0.05, rng=5)
        report = _tier(branchy, EntropyGated(), cloud=cluster).serve(
            images, arrival_s, labels=labels
        )
        assert report.n_offloaded > 0
        assert report.cloud_report.n_served == report.n_offloaded
        assert np.isfinite(report.p99_s)

    def test_shedding_cloud_does_not_poison_the_report(self, branchy, stream):
        # A cloud cluster under admission control sheds requests (NaN
        # completion); those must surface as n_unserved, not as NaN
        # percentiles or a corrupted downlink queue.
        from repro.cluster.admission import AdmissionController

        images, arrival_s, labels = stream
        cluster = Cluster(
            [RemoteTrunkBackend(branchy, gci_cpu())],
            policy="least-outstanding",
            admission=AdmissionController(max_outstanding=1, policy="reject"),
            slo_s=0.05,
            rng=5,
        )
        report = _tier(branchy, EntropyGated(), cloud=cluster).serve(
            images, arrival_s, labels=labels
        )
        assert report.n_unserved > 0
        assert report.cloud_report.n_shed == report.n_unserved
        assert np.isfinite(report.p95_s) and np.isfinite(report.mean_s)
        # Requests the cloud did serve still completed after the downlink.
        assert report.n_offloaded > report.n_unserved

    def test_cloud_must_be_a_cluster(self, branchy):
        with pytest.raises(TypeError, match="must be a repro.cluster.Cluster"):
            EdgeTier(
                branchy, raspberry_pi4(), wifi(), object(), EntropyGated()
            )

    @pytest.mark.parametrize("bad", [np.nan, -1e-3], ids=["nan", "negative"])
    def test_gate_threshold_must_be_non_negative(self, branchy, bad):
        """The pipeline sets the tuned threshold after building the
        model, so the tier checks it too: a NaN gate flags every sample
        hard."""
        cloud = cloud_server_for(EntropyGated(), branchy, gci_cpu())
        model = copy.copy(branchy)
        model.entropy_threshold = bad
        with pytest.raises(ValueError, match="entropy threshold must be >= 0"):
            EdgeTier(model, raspberry_pi4(), wifi(), cloud, EntropyGated())

    def test_reused_observer_raises_and_keeps_the_first_run(self, branchy, stream):
        """A tier handed a finished observer would double every leg
        counter and span, so it raises before recording anything."""
        images, arrival_s, _ = stream
        obs, once = Observer(), Observer()
        _tier(branchy, EntropyGated(), obs=obs).serve(images, arrival_s)
        _tier(branchy, EntropyGated(), obs=once).serve(images, arrival_s)
        with pytest.raises(RuntimeError, match="finished run"):
            _tier(branchy, EntropyGated(), obs=obs).serve(images, arrival_s)
        assert obs.summary() == once.summary()
        assert obs.metrics["legs.edge_gate"].value == len(images)

    def test_remote_trunk_backend_matches_trunk(self, branchy):
        rng = np.random.default_rng(7)
        images = rng.normal(size=(16, 1, 28, 28)).astype(np.float32)
        feats = branchy.stem_features(images)
        backend = RemoteTrunkBackend(branchy, gci_cpu())
        expected = branchy.infer(images, threshold=-1.0).predictions
        np.testing.assert_array_equal(backend.predict(feats), expected)

    def test_remote_trunk_timing_is_static(self, branchy):
        backend = RemoteTrunkBackend(branchy, gci_cpu())
        t8 = backend.batch_service_s(8)
        t16 = backend.batch_service_s(16)
        per_item = backend.timing.per_item_s
        assert t16 - t8 == pytest.approx(8 * per_item)


class TestCodecsAndDegradation:
    def test_quantized_codec_shrinks_wire_and_keeps_shapes(self, branchy, stream):
        images, arrival_s, _ = stream
        full = _tier(branchy, EntropyGated()).serve(images, arrival_s)
        small = _tier(branchy, EntropyGated(), codec=TensorCodec("uint8")).serve(
            images, arrival_s
        )
        assert small.n_offloaded == full.n_offloaded  # decision is codec-free
        assert small.uplink_bytes < 0.3 * full.uplink_bytes

    def test_bandwidth_collapse_steers_deadline_policy_local(self, branchy, stream):
        images, arrival_s, _ = stream
        span = float(arrival_s[-1])
        dead = NetworkLink(
            name="collapsing", uplink_mbps=20.0, downlink_mbps=20.0, rtt_s=0.004,
            degradation=BandwidthTrace(times_s=(0.5 * span,), scales=(1e-4,)),
        )
        policy = DeadlineAware(deadline_s=0.05)
        report = _tier(branchy, policy, link=dead).serve(images, arrival_s)
        gated = _tier(branchy, EntropyGated(), link=dead).serve(images, arrival_s)
        # The deadline policy stops shipping once the link collapses; the
        # blind gate keeps queueing payloads on dead air.
        assert 0 < report.n_offloaded < gated.n_offloaded
        assert report.n_local_hard > 0
        assert report.p99_s < gated.p99_s

    def test_report_renders(self, branchy, stream):
        images, arrival_s, labels = stream
        report = _tier(branchy, EntropyGated()).serve(images, arrival_s, labels=labels)
        text = offload_comparison_table([report], "toy").render()
        assert "entropy-gated" in text
        assert report.summary().startswith("[entropy-gated")


class TestRetransmitAccounting:
    def test_lossless_link_reports_unit_amplification(self, branchy, stream):
        images, arrival_s, labels = stream
        link = replace(wifi(), loss_rate=0.0)
        report = _tier(branchy, AlwaysRemote(), link=link).serve(
            images, arrival_s, labels=labels
        )
        assert report.n_retransmits == 0
        assert report.retry_amplification == pytest.approx(1.0)

    def test_lossy_link_surfaces_retransmits(self, branchy, stream):
        images, arrival_s, labels = stream
        lossy = replace(wifi(), loss_rate=0.5)
        report = _tier(branchy, AlwaysRemote(), link=lossy).serve(
            images, arrival_s, labels=labels
        )
        assert report.n_retransmits > 0
        expected = 1.0 + report.n_retransmits / report.n_offloaded
        assert report.retry_amplification == pytest.approx(expected)

    def test_budget_caps_amplification(self, branchy, stream):
        """The eight-attempt budget bounds the worst-case retry
        amplification."""
        images, arrival_s, labels = stream
        storm = replace(wifi(), loss_rate=0.9)
        report = _tier(branchy, AlwaysRemote(), link=storm).serve(
            images, arrival_s, labels=labels
        )
        # Each offload makes two transfers (uplink + downlink), each
        # capped at seven retransmits.
        assert 1.0 < report.retry_amplification <= 15.0 + 1e-9

    def test_local_only_policy_never_retransmits(self, branchy, stream):
        images, arrival_s, labels = stream
        lossy = replace(wifi(), loss_rate=0.5)
        report = _tier(branchy, AlwaysLocal(), link=lossy).serve(
            images, arrival_s, labels=labels
        )
        assert report.n_retransmits == 0
        assert report.retry_amplification == pytest.approx(1.0)

    def test_comparison_table_shows_retx_column(self, branchy, stream):
        images, arrival_s, labels = stream
        report = _tier(branchy, AlwaysRemote()).serve(images, arrival_s, labels=labels)
        table = str(offload_comparison_table([report]))
        assert "retx" in table
        assert f"{report.retry_amplification:.2f}x" in table
