"""NetworkLink: validation, determinism, degradation, planning estimates."""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest

from repro.hw.network import (
    BandwidthTrace,
    NetworkLink,
    ethernet,
    lte,
    network_links,
    wifi,
)


def _link(**overrides) -> NetworkLink:
    base = dict(
        name="test",
        uplink_mbps=8.0,  # 1 byte/us: easy mental arithmetic
        downlink_mbps=16.0,
        rtt_s=0.010,
        jitter_s=0.0,
        loss_rate=0.0,
        tx_power_w=1.0,
    )
    base.update(overrides)
    return NetworkLink(**base)


class TestValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            _link(uplink_mbps=0.0)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            _link(downlink_mbps=-1.0)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError, match="loss_rate"):
            _link(loss_rate=1.0)
        with pytest.raises(ValueError, match="loss_rate"):
            _link(loss_rate=-0.1)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            _link(rtt_s=-0.001)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="n_bytes"):
            _link().serialization_s(-1)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            _link().serialization_s(100, direction="sideways")

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BandwidthTrace(times_s=(0.0,), scales=(0.0,))
        # A NaN scale made serialization NaN and an infinite one 0 s; a
        # NaN step time slipped past the ordering check.
        for times_s, scales, field in (
            ((0.0,), (np.nan,), "scales"),
            ((0.0,), (np.inf,), "scales"),
            ((np.nan,), (1.0,), "times_s"),
            ((0.0, np.nan), (1.0, 1.0), "times_s"),
        ):
            with pytest.raises(ValueError, match=field):
                BandwidthTrace(times_s=times_s, scales=scales)
        with pytest.raises(ValueError, match="non-decreasing"):
            BandwidthTrace(times_s=(1.0, 0.5), scales=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            BandwidthTrace(times_s=(), scales=())
        with pytest.raises(ValueError, match="step times"):
            BandwidthTrace(times_s=(0.0, 1.0), scales=(1.0,))


class TestSerialization:
    def test_exact_bytes_over_bandwidth(self):
        # 8 Mbps = 1e6 bytes/s up: 1000 bytes take exactly 1 ms.
        assert _link().serialization_s(1000) == pytest.approx(1e-3)
        # Downlink is twice as fast.
        assert _link().serialization_s(1000, direction="down") == pytest.approx(0.5e-3)

    def test_lossless_transfer_is_deterministic_without_rng(self):
        t = _link().transfer(1000)
        assert t.attempts == 1
        assert t.occupancy_s == pytest.approx(1e-3)
        assert t.propagation_s == pytest.approx(0.005)  # rtt/2
        assert t.total_s == pytest.approx(0.006)

    def test_zero_byte_payload(self):
        t = _link().transfer(0)
        assert t.occupancy_s == 0.0
        assert t.total_s == pytest.approx(0.005)


class TestLossAndDeterminism:
    def test_same_seed_same_transfers(self):
        link = _link(loss_rate=0.3, jitter_s=2e-3)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            runs.append([link.transfer(500, rng=rng) for _ in range(64)])
        assert runs[0] == runs[1]

    def test_retries_extend_occupancy(self):
        link = _link(loss_rate=0.9)
        rng = np.random.default_rng(0)
        transfers = [link.transfer(1000, rng=rng) for _ in range(32)]
        retried = [t for t in transfers if t.attempts > 1]
        assert retried, "loss_rate=0.9 should produce retries"
        for t in retried:
            assert t.occupancy_s == pytest.approx(
                t.attempts * 1e-3 + (t.attempts - 1) * link.rtt_s
            )

    def test_expected_one_way_matches_lossless_transfer(self):
        link = _link()
        expected = link.expected_one_way_s(1000)
        assert expected == pytest.approx(link.transfer(1000).total_s)

    def test_expected_one_way_grows_with_loss(self):
        lossy = _link(loss_rate=0.5)
        assert lossy.expected_one_way_s(1000) > _link().expected_one_way_s(1000)

class TestDegradation:
    @pytest.mark.parametrize("seed", range(8))
    def test_scale_is_the_latest_step_at_or_before(self, seed):
        """A seeded step function: before the first step the link runs
        at nominal bandwidth, and from each step on at its scale."""
        rng = np.random.default_rng(seed)
        times = tuple(np.sort(rng.uniform(0.0, 10.0, 6)).tolist())
        scales = tuple(rng.uniform(0.01, 2.0, 6).tolist())
        trace = BandwidthTrace(times_s=times, scales=scales)
        for t in rng.uniform(-1.0, 11.0, 50):
            before = [s for at, s in zip(times, scales) if at <= t]
            assert trace.scale_at(t) == (before[-1] if before else 1.0)

    def test_trace_scales_serialization(self):
        trace = BandwidthTrace(times_s=(1.0, 2.0), scales=(0.5, 2.0))
        link = _link(degradation=trace)
        base = _link().serialization_s(1000)
        assert link.serialization_s(1000, time_s=0.0) == pytest.approx(base)
        assert link.serialization_s(1000, time_s=1.5) == pytest.approx(2 * base)
        assert link.serialization_s(1000, time_s=2.0) == pytest.approx(base / 2)

    def test_scale_at_boundaries(self):
        trace = BandwidthTrace(times_s=(1.0,), scales=(0.25,))
        assert trace.scale_at(0.999) == 1.0
        assert trace.scale_at(1.0) == 0.25
        assert trace.scale_at(100.0) == 0.25

    def test_bisect_finds_the_step_searchsorted_finds(self):
        """``scale_at`` bisects the step-time tuple; its index is numpy's
        right-sided ``searchsorted`` at repeated step times, their
        neighbouring floats, +-inf and NaN."""
        times = (0.0, 1.0, 1.0, 1.0, 2.5, 2.5, 7.0)
        scales = (0.5, 0.25, 0.75, 0.125, 2.0, 1.5, 0.3)
        trace = BandwidthTrace(times_s=times, scales=scales)
        queries = [math.inf, -math.inf, math.nan]
        for t in times:
            queries += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        for t in queries:
            idx = bisect_right(trace.times_s, t) - 1
            assert idx == int(np.searchsorted(times, t, side="right")) - 1, t
            assert trace.scale_at(t) == (1.0 if idx < 0 else scales[idx]), t


class TestPresets:
    def test_presets_registry(self):
        links = network_links()
        assert set(links) == {"ethernet", "wifi", "lte"}
        assert links["lte"].name == "lte"

    def test_preset_ordering_is_physical(self):
        # Wired beats wifi beats cellular on both bandwidth and RTT.
        e, w, c = ethernet(), wifi(), lte()
        assert e.uplink_mbps > w.uplink_mbps > c.uplink_mbps
        assert e.rtt_s < w.rtt_s < c.rtt_s
        # And cellular radios burn the most transmit power.
        assert c.tx_power_w > w.tx_power_w > e.tx_power_w

    def test_registry_rebuilt_per_call(self):
        links = network_links()
        links.pop("lte")
        assert "lte" in network_links()


class TestRetryBudget:
    def test_attempts_never_exceed_budget(self):
        link = _link(loss_rate=0.9)
        rng = np.random.default_rng(0)
        transfers = [link.transfer(1000, rng=rng) for _ in range(128)]
        assert max(t.attempts for t in transfers) <= 8
        # With 90% loss the 8-attempt budget should actually hit the cap.
        assert any(t.attempts == 8 for t in transfers)

    @pytest.mark.parametrize("seed", range(16))
    def test_retransmits_cost_one_rtt_each(self, seed):
        """Seeded links and payloads: at most eight attempts, each
        serialized in full, and occupancy exactly the attempts'
        serialization plus ``(attempts - 1) * rtt``."""
        rng = np.random.default_rng(seed)
        link = _link(
            loss_rate=float(rng.uniform(0.0, 0.95)),
            rtt_s=float(rng.uniform(1e-3, 0.1)),
            jitter_s=float(rng.uniform(0.0, 0.01)),
        )
        n_bytes = int(rng.integers(1, 50_000))
        tx = link.serialization_s(n_bytes)
        for t in (link.transfer(n_bytes, rng=rng) for _ in range(64)):
            assert 1 <= t.attempts <= 8
            assert t.tx_s == t.attempts * tx
            assert t.occupancy_s == t.attempts * tx + (t.attempts - 1) * link.rtt_s
            assert t.propagation_s >= link.rtt_s / 2.0


class TestBudgetAwareEstimates:
    """``expected_one_way_s`` must price the *bounded* retry budget —
    the truncated attempt series and timeout sum — not the unbounded
    geometric mean."""

    def test_expected_attempts_is_the_truncated_series(self):
        p = 0.9
        link = _link(loss_rate=p)
        assert link.expected_attempts() == pytest.approx((1 - p**8) / (1 - p))
        # Strictly below the unbounded 1/(1-p): the budget truncates.
        assert link.expected_attempts() < 1.0 / (1.0 - p)
        assert _link().expected_attempts() == 1.0

    def test_expected_timeout_sums_the_budget(self):
        p = 0.9
        link = _link(loss_rate=p)
        # rtt * sum_{k=1}^{7} p^k, by hand.
        by_hand = link.rtt_s * sum(p**k for k in range(1, 8))
        assert link.expected_timeout_s() == pytest.approx(by_hand)
        assert link.expected_timeout_s() < link.rtt_s * (1.0 / (1.0 - p) - 1.0)
        assert _link().expected_timeout_s() == 0.0

    def test_estimate_tracks_sampled_transfers(self):
        # The planning mean must sit inside the sampled distribution's
        # support — the drift this guards against was the estimate using
        # unbounded retries while transfer() enforced the budget.
        link = _link(loss_rate=0.4)
        rng = np.random.default_rng(0)
        totals = [link.transfer(1000, rng=rng).total_s for _ in range(400)]
        assert min(totals) <= link.expected_one_way_s(1000) <= max(totals)
        assert abs(np.mean(totals) - link.expected_one_way_s(1000)) < 0.2 * np.mean(
            totals
        )


class TestSampledTransfers:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95])
    def test_expected_attempts_match_the_sampled_mean(self, p):
        """The planner's truncated series is the mean the sampler draws."""
        link = _link(loss_rate=p)
        rng = np.random.default_rng(int(p * 100))
        attempts = np.array([link.transfer(100, rng=rng).attempts for _ in range(4000)])
        stderr = attempts.std() / np.sqrt(len(attempts))
        assert abs(attempts.mean() - link.expected_attempts()) < 4 * stderr + 1e-9
