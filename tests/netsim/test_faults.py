"""Link fault plans: validation, point queries, carrier drops, storms."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("seed", range(16))
def test_storm_degrades_stay_in_their_ranges(seed):
    """Each sampled degrade window scales bandwidth by 0.05-0.4 and adds
    5-30% loss, and windows of one kind never overlap."""
    plan = link_storm(50.0, rng=seed, degrades=6.0)
    degrades = [f for f in plan.faults if f.kind == DEGRADE]
    assert degrades
    for f in degrades:
        assert 0.05 <= f.bandwidth_scale < 0.4
        assert 0.05 <= f.loss_add < 0.3
    for kind in (OUTAGE, DEGRADE):
        windows = [(f.start_s, f.end_s) for f in plan.faults if f.kind == kind]
        assert all(e0 <= s1 for (_, e0), (s1, _) in zip(windows, windows[1:]))


class _LinearPlan:
    """The plan's point queries as linear walks over its windows.

    The method bodies are the walks ``LinkFaultPlan`` answered with
    before it compiled its windows for ``bisect_right``; they are the
    reference the compiled queries must equal.
    """

    def __init__(self, plan: LinkFaultPlan) -> None:
        self._outages = tuple((f.start_s, f.end_s) for f in plan.faults if f.kind == OUTAGE)
        self._degrades = tuple(f for f in plan.faults if f.kind == DEGRADE)
        self._flaps = tuple(f.start_s for f in plan.faults if f.kind == FLAP)

    def available_at(self, time_s: float) -> float:
        for start, end in self._outages:
            if time_s < start:
                break
            if time_s < end:
                time_s = end
        return time_s

    def bandwidth_scale_at(self, time_s: float) -> float:
        for fault in self._degrades:
            if fault.start_s <= time_s < fault.end_s:
                return fault.bandwidth_scale
            if fault.start_s > time_s:
                break
        return 1.0

    def loss_add_at(self, time_s: float) -> float:
        for fault in self._degrades:
            if fault.start_s <= time_s < fault.end_s:
                return fault.loss_add
            if fault.start_s > time_s:
                break
        return 0.0

    def carrier_drop_in(self, t0: float, t1: float) -> bool:
        flaps = self._flaps
        idx = bisect_right(flaps, t0)
        if idx < len(flaps) and flaps[idx] <= t1:
            return True
        return any(t0 < start <= t1 for start, _ in self._outages)


def _assert_matches_the_linear_walks(plan: LinkFaultPlan) -> None:
    """Every query equals the linear walk at every window edge, at the
    neighbouring floats on both sides of each edge, and at +-inf."""
    linear = _LinearPlan(plan)
    edges = {t for f in plan.faults for t in (f.start_s, f.end_s)}
    points = sorted(
        {math.inf, -math.inf}
        | edges
        | {math.nextafter(t, -math.inf) for t in edges}
        | {math.nextafter(t, math.inf) for t in edges}
    )
    for t in points:
        assert plan.available_at(t) == linear.available_at(t), t
        assert plan.bandwidth_scale_at(t) == linear.bandwidth_scale_at(t), t
        assert plan.loss_add_at(t) == linear.loss_add_at(t), t
    for t0 in points:
        for t1 in points:
            assert plan.carrier_drop_in(t0, t1) == linear.carrier_drop_in(t0, t1), (t0, t1)


_GAP = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))  # 0.0: the windows touch
_SPAN = st.floats(1e-3, 4.0)


@st.composite
def _plans(draw):
    """Outage and degrade windows that may touch, and flaps that may
    fall exactly on an outage onset."""
    faults, onsets = [], []
    at = draw(st.floats(0.0, 2.0))
    for gap, span in draw(st.lists(st.tuples(_GAP, _SPAN), max_size=5)):
        at += gap
        faults.append(outage_window(at, span))
        onsets.append(at)
        at += span
    at = draw(st.floats(0.0, 2.0))
    for gap, span, scale, loss in draw(
        st.lists(
            st.tuples(_GAP, _SPAN, st.floats(1e-3, 1.0), st.floats(0.0, 0.99)), max_size=5
        )
    ):
        at += gap
        faults.append(degradation_window(at, span, bandwidth_scale=scale, loss_add=loss))
        at += span
    flaps = draw(st.lists(st.floats(0.0, 30.0), max_size=4))
    if onsets:
        flaps += draw(st.lists(st.sampled_from(onsets), max_size=3))
    faults.extend(flap_at(t) for t in flaps)
    return LinkFaultPlan(faults=tuple(draw(st.permutations(faults))))


class TestCompiledQueries:
    @settings(max_examples=150, deadline=None)
    @given(_plans())
    def test_equal_the_linear_walks_on_generated_plans(self, plan):
        _assert_matches_the_linear_walks(plan)

    @pytest.mark.parametrize("seed", range(16))
    def test_equal_the_linear_walks_on_storms(self, seed):
        plan = link_storm(
            50.0, rng=seed, outages=6.0, degrades=12.0, flaps=12.0, mean_window_s=50.0 / 60.0
        )
        _assert_matches_the_linear_walks(plan)

    def test_a_chain_of_touching_outages_exits_at_its_last_end(self):
        plan = LinkFaultPlan(
            faults=(outage_window(1.0, 1.0), outage_window(2.0, 1.0), outage_window(4.0, 1.0))
        )
        assert plan.available_at(1.5) == 3.0
        assert plan.available_at(2.0) == 3.0
        assert plan.available_at(3.0) == 3.0
        assert plan.available_at(4.5) == 5.0
