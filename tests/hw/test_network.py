"""NetworkLink: validation, determinism, degradation, planning estimates."""

from __future__ import annotations

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
        link = _link(loss_rate=0.9, max_attempts=3)
        rng = np.random.default_rng(0)
        transfers = [link.transfer(1000, rng=rng) for _ in range(128)]
        assert max(t.attempts for t in transfers) <= 3
        # With 90% loss a 3-attempt budget should actually hit the cap.
        assert any(t.attempts == 3 for t in transfers)

    def test_single_attempt_budget_never_retransmits(self):
        link = _link(loss_rate=0.9, max_attempts=1)
        rng = np.random.default_rng(1)
        assert all(link.transfer(100, rng=rng).attempts == 1 for _ in range(32))

    def test_default_backoff_matches_legacy_occupancy(self):
        """retry_backoff_mult=1.0 must be bit-identical to the old
        (attempts - 1) * rtt retransmit cost."""
        flat = _link(loss_rate=0.5)
        rng = np.random.default_rng(2)
        for _ in range(64):
            t = flat.transfer(1000, rng=rng)
            tx = t.tx_s / t.attempts
            assert t.occupancy_s == t.attempts * tx + (t.attempts - 1) * flat.rtt_s

    def test_geometric_backoff_occupancy(self):
        """With mult=2 the timeout sum is rtt * (2^(n-1) - 1)."""
        link = _link(loss_rate=0.9, max_attempts=4, retry_backoff_mult=2.0)
        rng = np.random.default_rng(3)
        transfers = (link.transfer(1000, rng=rng) for _ in range(256))
        t = next(t for t in transfers if t.attempts == 4)
        tx = t.tx_s / t.attempts
        expected = 4 * tx + link.rtt_s * (2.0 ** 3 - 1.0)
        assert t.occupancy_s == pytest.approx(expected)
        # Backoff makes the lossy path strictly slower than flat timeouts.
        assert t.occupancy_s > 4 * tx + 3 * link.rtt_s

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            _link(max_attempts=0)
        with pytest.raises(ValueError, match="retry_backoff_mult"):
            _link(retry_backoff_mult=0.9)


class TestOutages:
    def test_next_available_defers_into_gap(self):
        link = _link(outages=((1.0, 2.0), (5.0, 6.5)))
        assert link.next_available(0.5) == 0.5
        assert link.next_available(1.0) == 2.0
        assert link.next_available(1.9) == 2.0
        assert link.next_available(2.0) == 2.0  # half-open: end is usable
        assert link.next_available(5.5) == 6.5
        assert link.next_available(7.0) == 7.0

    def test_no_outages_is_identity(self):
        link = _link()
        assert link.next_available(3.25) == 3.25

    def test_outage_validation(self):
        with pytest.raises(ValueError, match="outage"):
            _link(outages=((2.0, 1.0),))
        with pytest.raises(ValueError, match="outage"):
            _link(outages=((1.0, 3.0), (2.0, 4.0)))  # overlapping


class TestSharedOutageValidator:
    """The link's outage windows run through ``repro.faults.plan``'s
    shared validator — same messages, same normalization, one code path
    for every layer that declares windows."""

    def test_messages_carry_the_owner_prefix(self):
        with pytest.raises(ValueError, match=r"test: outage window .* end > start"):
            _link(outages=((2.0, 1.0),))
        with pytest.raises(
            ValueError, match="test: outage windows must be sorted and non-overlapping"
        ):
            _link(outages=((1.0, 3.0), (2.0, 4.0)))

    def test_matches_validate_windows_directly(self):
        from repro.faults.plan import validate_windows

        windows = ((1.0, 2.0), (3.5, 4.0))
        link = _link(outages=windows)
        assert link.outages == validate_windows(windows, what="outage", owner="test")


class TestBudgetAwareEstimates:
    """``expected_one_way_s`` must price the *bounded* retry budget —
    the truncated attempt series and the backed-off timeout sum — not
    the unbounded geometric mean the pre-budget planner used."""

    def test_expected_attempts_is_the_truncated_series(self):
        p, cap = 0.5, 4
        link = _link(loss_rate=p, max_attempts=cap)
        assert link.expected_attempts() == pytest.approx((1 - p**cap) / (1 - p))
        # Strictly below the unbounded 1/(1-p): the budget truncates.
        assert link.expected_attempts() < 1.0 / (1.0 - p)
        assert _link().expected_attempts() == 1.0

    def test_expected_timeout_prices_the_backoff(self):
        p, cap, mult = 0.5, 4, 2.0
        link = _link(loss_rate=p, max_attempts=cap, retry_backoff_mult=mult)
        # rtt * sum_{k=1}^{cap-1} p^k mult^(k-1), by hand.
        by_hand = link.rtt_s * sum(p**k * mult ** (k - 1) for k in range(1, cap))
        assert link.expected_timeout_s() == pytest.approx(by_hand)

    def test_timeout_handles_the_ratio_one_singularity(self):
        link = _link(loss_rate=0.5, max_attempts=5, retry_backoff_mult=2.0)
        # p * mult == 1: the geometric ratio degenerates to a flat sum.
        assert link.expected_timeout_s() == pytest.approx(
            link.rtt_s * 0.5 * (5 - 1)
        )

    def test_single_attempt_budget_never_waits(self):
        link = _link(loss_rate=0.9, max_attempts=1)
        assert link.expected_attempts() == pytest.approx(1.0)
        assert link.expected_timeout_s() == 0.0

    def test_estimate_tracks_sampled_transfers(self):
        # The planning mean must sit inside the sampled distribution's
        # support — the drift this guards against was the estimate using
        # unbounded retries while transfer() enforced the budget.
        link = _link(loss_rate=0.4, max_attempts=3, retry_backoff_mult=2.0)
        rng = np.random.default_rng(0)
        totals = [link.transfer(1000, rng=rng).total_s for _ in range(400)]
        assert min(totals) <= link.expected_one_way_s(1000) <= max(totals)
        assert abs(np.mean(totals) - link.expected_one_way_s(1000)) < 0.2 * np.mean(
            totals
        )
