"""Shared links: validation, time-varying state, and the contended
serializer that makes fleet devices queue behind each other."""

from dataclasses import replace

import numpy as np
import pytest

from repro.hw.network import BandwidthTrace, lte, wifi
from repro.netsim import (
    LinkFaultPlan,
    SharedLink,
    degradation_window,
    flap_at,
    link_storm,
    outage_window,
)


def _shared(**kwargs):
    defaults = dict(name="cell", uplink_mbps=10.0, downlink_mbps=40.0, rtt_s=0.05)
    defaults.update(kwargs)
    return SharedLink(**defaults)


class TestConstruction:
    def test_from_network_link_copies_the_preset(self):
        base = lte()
        link = SharedLink.from_network_link(base)
        assert link.name == base.name
        assert link.uplink_mbps == base.uplink_mbps
        assert link.rtt_s == base.rtt_s
        assert link.loss_rate == base.loss_rate
        assert link.up_free_s == 0.0 and link.down_free_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="bandwidth"):
            _shared(uplink_mbps=0.0)
        with pytest.raises(ValueError, match="loss_rate"):
            _shared(loss_rate=1.0)
        with pytest.raises(ValueError, match="max_mtu_bytes"):
            _shared(max_mtu_bytes=10)
        with pytest.raises(ValueError, match="codecs"):
            _shared(codecs=())

    def test_from_network_link_refuses_a_degradation_trace(self):
        """A shared link degrades only through its fault plan, so a
        preset's trace is refused instead of silently dropped."""
        traced = replace(lte(), degradation=BandwidthTrace(times_s=(1.0,), scales=(0.5,)))
        with pytest.raises(ValueError, match="lte: a shared link takes no degradation"):
            SharedLink.from_network_link(traced)


class TestLinkStateOverTime:
    def test_scale_follows_the_fault_plan(self):
        plan = LinkFaultPlan(
            faults=(degradation_window(10.0, 5.0, bandwidth_scale=0.4),)
        )
        link = _shared(faults=plan)
        assert link.scale_at(0.0) == 1.0
        assert link.scale_at(12.0) == 0.4
        assert link.scale_at(15.0) == 1.0

    def test_loss_adds_degrade_and_saturates(self):
        plan = LinkFaultPlan(
            faults=(degradation_window(0.0, 1.0, bandwidth_scale=0.5, loss_add=0.9),)
        )
        link = _shared(loss_rate=0.5, faults=plan)
        assert link.loss_at(0.5) == 0.999  # clamped below 1
        assert link.loss_at(2.0) == 0.5

    def test_available_at_chains_adjacent_outages(self):
        plan = LinkFaultPlan(faults=(outage_window(1.0, 1.0), outage_window(2.0, 1.0)))
        link = _shared(faults=plan)
        # The first window ends exactly where the second begins: the
        # scan must walk through both.
        assert link.available_at(1.5) == 3.0
        assert link.available_at(3.5) == 3.5

    def test_carrier_drop_sees_outages_and_flaps(self):
        plan = LinkFaultPlan(faults=(outage_window(1.0, 1.0), flap_at(5.0)))
        link = _shared(faults=plan)
        assert link.carrier_drop_in(0.5, 1.5)  # plan outage onset
        assert link.carrier_drop_in(4.0, 5.0)  # plan flap
        assert not link.carrier_drop_in(2.5, 3.5)

    def test_mtu_cap_halves_under_heavy_degradation(self):
        plan = LinkFaultPlan(
            faults=(degradation_window(0.0, 1.0, bandwidth_scale=0.3),)
        )
        link = _shared(faults=plan)
        assert link.mtu_cap_at(0.5) == 750
        assert link.mtu_cap_at(2.0) == 1500


class TestStateFollowsThePlan:
    @pytest.mark.parametrize("seed", range(16))
    def test_available_at_is_a_fixed_point_outside_every_outage(self, seed):
        """Over a seeded storm: the instant a flight may start is never
        earlier than asked, never inside an outage, and asking again
        does not move it; scale and carrier drops are the plan's."""
        plan = link_storm(20.0, rng=seed, outages=4.0, degrades=4.0, flaps=4.0)
        link = _shared(faults=plan)
        rng = np.random.default_rng(seed)
        for t in np.sort(rng.uniform(0.0, 22.0, 64)):
            start = link.available_at(t)
            assert start >= t
            assert not any(lo <= start < hi for lo, hi in plan.outages)
            assert link.available_at(start) == start
            assert link.scale_at(t) == plan.bandwidth_scale_at(t)
            assert link.carrier_drop_in(t, t + 0.5) == plan.carrier_drop_in(t, t + 0.5)


class TestSerializer:
    def test_serialization_scales_with_degradation(self):
        plan = LinkFaultPlan(faults=(degradation_window(5.0, 5.0, bandwidth_scale=0.5),))
        link = _shared(faults=plan)
        assert link.serialization_s(12_500, 0.0) == pytest.approx(0.01)
        assert link.serialization_s(12_500, 6.0) == pytest.approx(0.02)

    def test_reserve_is_fcfs_and_advances_the_horizon(self):
        link = _shared()
        s0, e0 = link.reserve(12_500, 0.0)
        s1, e1 = link.reserve(12_500, 0.0)
        assert (s0, e0) == (0.0, pytest.approx(0.01))
        assert s1 == e0 and e1 == pytest.approx(0.02)
        assert link.backlog_s(0.0) == pytest.approx(0.02)
        assert link.backlog_s(1.0) == 0.0

    def test_directions_are_independent(self):
        link = _shared()
        link.reserve(12_500, 0.0, "up")
        s, _ = link.reserve(12_500, 0.0, "down")
        assert s == 0.0
        assert link.free_at("up") > 0 and link.free_at("down") > 0

    def test_reserve_defers_past_outages(self):
        link = _shared(faults=LinkFaultPlan(faults=(outage_window(0.0, 1.0),)))
        s, e = link.reserve(12_500, 0.5)
        assert s == 1.0 and e == pytest.approx(1.01)

    def test_serializer_rejects_bad_args(self):
        link = _shared()
        with pytest.raises(ValueError, match="n_bytes"):
            link.serialization_s(-1)
        with pytest.raises(ValueError, match="direction"):
            link.serialization_s(10, 0.0, "sideways")

    def test_wifi_lift_keeps_negotiation_surface(self):
        link = SharedLink.from_network_link(wifi(), max_mtu_bytes=1400)
        assert link.max_mtu_bytes == 1400
        assert "float32" in link.codecs
