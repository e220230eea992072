"""Link fault plans: validation, point queries, carrier drops, storms."""

import numpy as np
import pytest

from repro.netsim import (
    DEGRADE,
    FLAP,
    OUTAGE,
    LinkFault,
    LinkFaultPlan,
    degradation_window,
    flap_at,
    link_storm,
    outage_window,
)


class TestLinkFault:
    def test_kinds_and_helpers(self):
        assert outage_window(1.0, 2.0).kind == OUTAGE
        assert degradation_window(1.0, 2.0, bandwidth_scale=0.5).kind == DEGRADE
        assert flap_at(3.0).kind == FLAP

    def test_flap_is_instantaneous(self):
        f = flap_at(2.5)
        assert f.start_s == f.end_s == 2.5
        with pytest.raises(ValueError, match="flap"):
            LinkFault(kind=FLAP, start_s=1.0, end_s=2.0)

    def test_window_must_have_positive_duration(self):
        with pytest.raises(ValueError, match="end > start"):
            LinkFault(kind=OUTAGE, start_s=2.0, end_s=2.0)

    def test_scale_and_loss_ranges(self):
        with pytest.raises(ValueError, match="bandwidth_scale"):
            degradation_window(0.0, 1.0, bandwidth_scale=0.0)
        with pytest.raises(ValueError, match="loss_add"):
            degradation_window(0.0, 1.0, bandwidth_scale=0.5, loss_add=1.0)


class TestLinkFaultPlan:
    def test_point_queries(self):
        plan = LinkFaultPlan(
            faults=(
                outage_window(1.0, 1.0),
                degradation_window(4.0, 2.0, bandwidth_scale=0.25, loss_add=0.1),
                flap_at(8.0),
            )
        )
        assert plan.available_at(0.5) == 0.5
        assert plan.available_at(1.5) == 2.0  # deferred to the outage end
        assert plan.available_at(2.0) == 2.0  # end-exclusive
        assert plan.bandwidth_scale_at(5.0) == 0.25
        assert plan.bandwidth_scale_at(3.0) == 1.0
        assert plan.loss_add_at(5.0) == pytest.approx(0.1)
        assert plan.loss_add_at(0.0) == 0.0

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ValueError, match="sorted and non-overlapping"):
            LinkFaultPlan(faults=(outage_window(1.0, 3.0), outage_window(2.0, 3.0)))

    def test_carrier_drop_flags_flaps_and_outage_onsets(self):
        plan = LinkFaultPlan(faults=(outage_window(5.0, 1.0), flap_at(2.0)))
        assert plan.carrier_drop_in(1.0, 3.0)  # flap inside
        assert plan.carrier_drop_in(4.9, 5.1)  # outage onset inside
        assert not plan.carrier_drop_in(2.0, 4.0)  # (t0, t1]: flap at t0 excluded
        assert not plan.carrier_drop_in(5.5, 5.9)  # mid-outage, no new onset

    def test_empty_plan_is_falsy_and_transparent(self):
        plan = LinkFaultPlan()
        assert not plan
        assert plan.available_at(123.0) == 123.0
        assert plan.bandwidth_scale_at(123.0) == 1.0
        assert not plan.carrier_drop_in(0.0, 1e9)


class TestLinkStorm:
    def test_deterministic_and_disjoint(self):
        a = link_storm(100.0, rng=7)
        b = link_storm(100.0, rng=7)
        assert a.faults == b.faults
        # Outage and degrade windows are each sorted and disjoint
        # (per kind — an outage may legitimately straddle a degrade).
        for kind in (OUTAGE, DEGRADE):
            windows = [
                (f.start_s, f.end_s) for f in a.faults if f.kind == kind
            ]
            for (_, e0), (s1, _) in zip(windows, windows[1:]):
                assert e0 <= s1

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(0)
        plans = {link_storm(100.0, rng=int(rng.integers(1 << 30))) for _ in range(4)}
        assert len({p.faults for p in plans}) > 1
