"""Transports: the session's AIMD-paced flights, the hard retransmit
bound, mid-flight renegotiation and deterministic replay; and the
private radio of a ``NetworkLink``."""

import dataclasses

import numpy as np
import pytest

from repro.hw.network import NetworkLink, lte
from repro.netsim import (
    AIMDConfig,
    ESTABLISHED,
    LinkFaultPlan,
    LinkTransport,
    SessionTransport,
    SharedLink,
    degradation_window,
    flap_at,
    outage_window,
)


def _link(**kwargs):
    return SharedLink.from_network_link(lte(), **kwargs)


def _clean_link(**kwargs):
    link = _link(**kwargs)
    link.loss_rate = 0.0
    link.jitter_s = 0.0
    return link


class TestBasicTransfer:
    def test_clean_send_pays_handshake_and_flights(self):
        link = _clean_link()
        tr = SessionTransport(link, rng=0, aimd=AIMDConfig(init_cwnd=4))
        result = tr.send(6_000, 0.0)  # 4 segments @1500
        assert result.n_segments == 4
        assert result.sent_bytes == 6_000 and result.retx_bytes == 0
        assert result.amplification == 1.0
        assert result.handshakes == 1 and result.flights == 1
        assert tr.session.state == ESTABLISHED
        # handshake RTT + serialization + rtt/2 to the far side
        ser = link.serialization_s(6_000, 0.0, "up")
        assert result.delivered_s == pytest.approx(link.rtt_s * 1.5 + ser)
        assert result.ack_s == pytest.approx(result.delivered_s + link.rtt_s / 2)

    def test_window_paces_multi_flight_transfers(self):
        link = _clean_link()
        tr = SessionTransport(link, rng=0, aimd=AIMDConfig(init_cwnd=2))
        result = tr.send(12_000, 0.0)  # 8 segments, cwnd 2 -> 2+4 -> done
        assert result.flights >= 2
        assert result.timeouts == 0
        assert tr.aimd.window > 2  # slow start grew it

    def test_second_transfer_reuses_the_session(self):
        tr = SessionTransport(_clean_link(), rng=0)
        first = tr.send(1_500, 0.0)
        second = tr.send(1_500, first.ack_s)
        assert first.handshakes == 1 and second.handshakes == 0
        assert tr.n_transfers == 2

    def test_start_guards(self):
        tr = SessionTransport(_clean_link(), rng=0)
        with pytest.raises(ValueError, match="n_bytes"):
            tr.start(0, 0.0)
        tr.start(100, 0.0)
        with pytest.raises(RuntimeError, match="in flight"):
            tr.start(100, 0.0)
        with pytest.raises(ValueError, match="max_attempts"):
            SessionTransport(_clean_link(), max_attempts=0)


class TestLossAndTheHardBound:
    def test_loss_forces_retransmits_but_delivers(self):
        link = _link()
        link.loss_rate = 0.3
        tr = SessionTransport(link, rng=5, aimd=AIMDConfig(init_cwnd=4))
        result = tr.send(30_000, 0.0)
        assert result.retx_segments > 0
        assert result.sent_bytes >= result.n_bytes
        assert tr.aimd.n_md + tr.aimd.n_timeouts > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_amplification_never_exceeds_max_attempts(self, seed):
        link = _link()
        link.loss_rate = 0.95  # pathological storm
        tr = SessionTransport(link, rng=seed, max_attempts=4)
        result = tr.send(9_000, 0.0)
        assert result.amplification <= 4.0
        assert result.sent_bytes <= 4 * 9_000

    def test_total_loss_collapses_the_window(self):
        link = _link()
        link.loss_rate = 0.999
        tr = SessionTransport(link, rng=3, aimd=AIMDConfig(init_cwnd=8))
        tr.start(12_000, 0.0)
        status, now, collapsed = "wait", 0.0, []
        while status == "wait":
            timeouts = tr.aimd.n_timeouts
            status, now = tr.advance(now)
            if tr.aimd.n_timeouts > timeouts:  # this step's flight timed out
                collapsed.append(tr.aimd.window)
        assert tr.aimd.n_timeouts >= 1
        assert collapsed and all(w == 1 for w in collapsed)


class TestCarrierDropsAndRenegotiation:
    def test_flap_mid_transfer_renegotiates_and_resumes(self):
        plan = LinkFaultPlan(faults=(flap_at(0.08),))
        link = _clean_link(faults=plan)
        tr = SessionTransport(link, rng=0, aimd=AIMDConfig(init_cwnd=1))
        result = tr.send(30_000, 0.0)  # 20 segments: straddles the flap
        assert result.flap_resumes == 1
        assert result.handshakes == 2  # initial + post-flap
        assert tr.session.n_carrier_drops == 1
        assert result.retx_bytes > 0  # the in-air flight was presumed lost

    def test_outage_mid_transfer_defers_and_resumes(self):
        plan = LinkFaultPlan(faults=(outage_window(0.08, 0.5),))
        link = _clean_link(faults=plan)
        tr = SessionTransport(link, rng=0, aimd=AIMDConfig(init_cwnd=1))
        result = tr.send(30_000, 0.0)
        assert result.flap_resumes >= 1
        assert result.delivered_s > 0.58  # waited out the outage

    def test_session_opened_mid_storm_negotiates_the_smaller_mtu(self):
        # A session negotiated inside a heavy degradation window gets
        # conf-nak'd down to the halved MTU, re-segmenting the payload.
        plan = LinkFaultPlan(
            faults=(degradation_window(0.05, 2.0, bandwidth_scale=0.2),)
        )
        link = _clean_link(faults=plan)
        tr = SessionTransport(link, rng=0, aimd=AIMDConfig(init_cwnd=1))
        result = tr.send(3_000, 0.1)  # inside the degrade window
        assert tr.session.config.mtu_bytes == 750
        assert tr.session.n_naks == 1
        assert result.n_segments == 4  # 3000 B at MTU 750, not 2 at 1500


class TestDeterminismAndEstimates:
    def test_send_replays_field_for_field(self):
        def run():
            link = _link()
            link.loss_rate = 0.4
            tr = SessionTransport(link, rng=11, aimd=AIMDConfig(init_cwnd=2))
            return tr.send(20_000, 0.0)

        a, b = run(), run()
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_estimate_is_deterministic_and_honest(self):
        link = _clean_link()
        tr = SessionTransport(link, rng=0, aimd=AIMDConfig(init_cwnd=64))
        est = tr.estimate_s(6_000, 0.0)
        assert est == tr.estimate_s(6_000, 0.0)  # no sampling
        result = tr.send(6_000, 0.0)
        # The planning estimate is deliberately conservative (it prices
        # a full ack RTT for the final flight) but stays within one RTT.
        assert result.delivered_s <= est <= result.delivered_s + 2 * link.rtt_s

    def test_estimate_collapses_with_the_link(self):
        plan = LinkFaultPlan(faults=(outage_window(1.0, 4.0),))
        link = _clean_link(faults=plan)
        tr = SessionTransport(link, rng=0)
        healthy = tr.estimate_s(6_000, 0.0)
        mid_outage = tr.estimate_s(6_000, 2.0)
        assert mid_outage >= 3.0  # defers to the outage end
        assert mid_outage > healthy

    def test_estimate_includes_serializer_backlog(self):
        link = _clean_link()
        tr = SessionTransport(link, rng=0)
        idle = tr.estimate_s(6_000, 0.0)
        link.reserve(120_000, 0.0, "up")  # someone else queued first
        assert tr.estimate_s(6_000, 0.0) > idle

    def test_send_down_rides_the_downlink_serializer(self):
        link = _clean_link()
        tr = SessionTransport(link, rng=0)
        _, arrival, _ = tr.send_down(40_000, 0.0)
        ser = link.serialization_s(40_000, 0.0, "down")
        assert arrival == pytest.approx(ser + link.rtt_s / 2)
        assert link.free_at("down") == pytest.approx(ser)
        # The reserved response is the backlog, then one serialization
        # and half an RTT.
        assert tr.estimate_down_s(40_000, 0.0) == pytest.approx(2 * ser + link.rtt_s / 2)


def _radio(**kwargs):
    return NetworkLink(
        name="radio", uplink_mbps=8.0, downlink_mbps=16.0, rtt_s=0.02, **kwargs
    )


class TestLinkTransport:
    def test_send_is_one_segment_sent_once_per_attempt(self):
        link = _radio(jitter_s=0.004, loss_rate=0.5)
        for seed in range(8):
            transfer = link.transfer(4_000, time_s=0.0, rng=np.random.default_rng(seed))
            result = LinkTransport(link, rng=seed).send(4_000, 0.0)
            retries = transfer.attempts - 1
            assert (result.n_segments, result.flights, result.handshakes) == (
                1, transfer.attempts, 0
            )
            assert result.retx_segments == retries
            assert result.sent_bytes == transfer.attempts * 4_000
            assert result.amplification == transfer.attempts
            assert result.start_s == 0.0
            assert result.ack_s == transfer.occupancy_s  # the radio frees
            assert result.delivered_s == transfer.occupancy_s + transfer.propagation_s
            assert result.tx_s == transfer.tx_s

    def test_radio_queues_payloads_fifo(self):
        link = _radio()
        tr = LinkTransport(link)
        first = tr.send(10_000, 0.0)
        second = tr.send(10_000, 0.0)
        assert second.start_s == first.ack_s  # FIFO behind the first payload
        start, arrival, retransmits = tr.send_down(10_000, 1.2)
        assert start == 1.2 and retransmits == 0
        assert arrival == pytest.approx(
            1.2 + link.serialization_s(10_000, direction="down") + link.rtt_s / 2
        )

    def test_estimate_waits_out_the_backlog(self):
        """Behind a queued payload the estimate includes the wait the
        send will pay; lossless and jitter-free, it is exact."""
        link = _radio()
        tr = LinkTransport(link)
        tr.send(10_000, 0.0)
        estimate = tr.estimate_s(6_000, 0.001)
        assert estimate == pytest.approx(
            tr.up_free_s - 0.001 + link.expected_one_way_s(6_000, time_s=0.001)
        )
        assert tr.send(6_000, 0.001).delivered_s == pytest.approx(0.001 + estimate)

    def test_estimate_is_backlog_plus_the_planning_view(self):
        link = _radio(loss_rate=0.1, jitter_s=0.002)
        tr = LinkTransport(link, rng=0)
        assert tr.estimate_s(6_000, 0.0) == link.expected_one_way_s(6_000)
        tr.send(60_000, 0.0)
        backlog = tr.up_free_s - 0.01
        assert tr.estimate_s(6_000, 0.01) == backlog + link.expected_one_way_s(6_000, 0.01)
        assert tr.estimate_down_s(40, 0.01) == link.expected_one_way_s(40, 0.01, "down")
