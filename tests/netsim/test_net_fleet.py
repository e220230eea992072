"""Fleet simulator: emergent fair share, delivery conservation, and
deterministic replay across many devices on one shared link."""

import numpy as np
import pytest

from repro.hw.network import BandwidthTrace, NetworkLink, lte
from repro.netsim import (
    AIMDConfig,
    FleetDevice,
    LinkFaultPlan,
    LinkTransport,
    SessionTransport,
    SharedLink,
    degradation_window,
    flap_at,
    outage_window,
    run_fleet_net,
)
from repro.offload.policies import (
    AlwaysLocal,
    AlwaysRemote,
    DeadlineAware,
    EntropyGated,
    OffloadContext,
)


def _run(n_devices=4, policy=None, faults=None, loss=0.02, **dev_kwargs):
    link = SharedLink.from_network_link(lte(), faults=faults)
    link.loss_rate = loss
    defaults = dict(rate_hz=10.0, n_requests=50, up_bytes=9_000, local_s=0.04)
    defaults.update(dev_kwargs)
    spec = FleetDevice(**defaults)
    return run_fleet_net(
        link,
        tuple(spec for _ in range(n_devices)),
        policy or AlwaysRemote(),
        deadline_s=0.5,
        rng=42,
        aimd=AIMDConfig(init_cwnd=4),
    )


class TestConservation:
    def test_every_request_terminates_exactly_once(self):
        report = _run()
        assert report.n_requests == 4 * 50
        assert report.n_offloaded + report.n_local == report.n_requests
        assert report.n_lost == 0
        assert report.n_double_delivered == 0
        assert np.isfinite(report.completion_s).all()
        assert (report.completion_s > report.arrival_s).all()

    def test_offloaded_deliveries_are_exactly_once(self):
        report = _run(loss=0.2)  # lossy: retransmits galore, still exact
        offloaded = report.outcome == 2
        assert (report.delivered_count[offloaded] == 1).all()
        assert (report.delivered_count[~offloaded] == 0).all()

    def test_retransmit_amplification_is_bounded(self):
        report = _run(loss=0.3)
        assert report.retx_amplification <= 8.0  # the max_attempts bound

    def test_always_local_never_touches_the_link(self):
        report = _run(policy=AlwaysLocal())
        assert report.n_offloaded == 0
        assert all(d.sent_bytes == 0 for d in report.devices)


class TestFairShare:
    def test_goodputs_converge_to_fair_share(self):
        # The acceptance assertion: per-device goodput on a saturated
        # lossy shared link tracks the AIMD fair share — nothing in the
        # code allocates shares; they emerge from interleaved flights
        # and per-device windows.
        report = _run(
            n_devices=4, loss=0.05, n_requests=80, rate_hz=20.0, up_bytes=12_000
        )
        goodputs = report.goodputs_bps()
        assert len(goodputs) == 4
        mean = float(np.mean(goodputs))
        assert mean > 0
        # Every device within a modest band of the mean share.
        assert float(np.max(goodputs)) <= 1.35 * mean
        assert float(np.min(goodputs)) >= 0.65 * mean

    def test_two_devices_split_what_one_gets(self):
        # Lossless 240 kB payloads at 40 Hz: two devices saturate the
        # cell, so each gets less than one device alone (at most 0.87x
        # on seeds 0-39).  At 9 kB under 5% loss they barely contend,
        # and the goodput gap is loss-draw noise.
        kwargs = dict(loss=0.0, rate_hz=40.0, n_requests=80, up_bytes=240_000)
        solo_bps = _run(n_devices=1, **kwargs).goodputs_bps()[0]
        for bps in _run(n_devices=2, **kwargs).goodputs_bps():
            assert bps < solo_bps  # contention strictly costs throughput


class TestFaultsAndDeadlines:
    def test_outage_mid_run_loses_nothing(self):
        horizon = 50 / 10.0
        plan = LinkFaultPlan(
            faults=(outage_window(0.3 * horizon, 0.2 * horizon),)
        )
        report = _run(faults=plan)
        assert report.n_lost == 0 and report.n_double_delivered == 0
        assert sum(d.carrier_drops for d in report.devices) >= 1
        assert sum(d.sessions for d in report.devices) > 4  # re-established

    def test_deadline_aware_policy_goes_local_under_outage(self):
        from repro.offload.policies import DeadlineAware

        horizon = 50 / 10.0
        plan = LinkFaultPlan(
            faults=(outage_window(0.2 * horizon, 0.6 * horizon),)
        )
        resilient = _run(policy=DeadlineAware(0.5), faults=plan)
        naive = _run(policy=EntropyGated(), faults=plan)
        assert resilient.slo_attainment > naive.slo_attainment
        # Hard requests arriving mid-outage ran local instead of waiting.
        assert resilient.n_local > naive.n_local

    def test_per_device_policy_callable(self):
        report = _run(policy=lambda dev: AlwaysLocal() if dev == 0 else AlwaysRemote())
        assert report.devices[0].n_offloaded == 0
        assert all(d.n_offloaded > 0 for d in report.devices[1:])


class _ReadsThePrice(EntropyGated):
    """Entropy-gated, but reads the remote price of every request."""

    name = "reads-the-price"

    def __init__(self) -> None:
        self.prices: list[float] = []

    def offload(self, ctx: OffloadContext) -> bool:
        self.prices.append(ctx.est_remote_s)
        return super().offload(ctx)


class TestDeterminism:
    def test_replay_is_field_for_field(self):
        a, b = _run(loss=0.1), _run(loss=0.1)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.completion_s, b.completion_s)
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.delivered_count, b.delivered_count)
        assert a.devices == b.devices

    def test_one_clock_across_devices(self, monkeypatch):
        """Requests are decided in time order, whichever device owns them."""
        decided_at = []
        estimate_s = SessionTransport.estimate_s

        def recorded(transport, n_bytes, time_s):
            decided_at.append(time_s)
            return estimate_s(transport, n_bytes, time_s)

        monkeypatch.setattr(SessionTransport, "estimate_s", recorded)
        spec = FleetDevice(rate_hz=10.0, n_requests=30, up_bytes=9_000)
        policy = _ReadsThePrice()
        report = run_fleet_net(
            SharedLink.from_network_link(lte()), (spec,) * 4, policy,
            deadline_s=0.5, rng=1,
        )
        first = report.arrival_s[:: spec.n_requests]
        assert first[0] > first.min()  # device 0 is not the first to arrive
        assert len(decided_at) == len(policy.prices) == report.n_requests
        assert decided_at == sorted(decided_at)

    def test_seeds_change_the_run(self):
        link = SharedLink.from_network_link(lte())
        spec = FleetDevice(rate_hz=10.0, n_requests=30, up_bytes=9_000)
        runs = [
            run_fleet_net(
                SharedLink.from_network_link(lte()),
                (spec, spec),
                AlwaysRemote(),
                deadline_s=0.5,
                rng=seed,
            ).makespan_s
            for seed in (1, 2)
        ]
        assert runs[0] != runs[1]
        assert link.up_free_s == 0.0  # untouched control


def _count_estimates(monkeypatch) -> list[str]:
    """Record every uplink and downlink estimate a session transport makes."""
    calls = []
    for name in ("estimate_s", "estimate_down_s"):
        method = getattr(SessionTransport, name)

        def counted(transport, n_bytes, time_s, name=name, method=method):
            calls.append(name)
            return method(transport, n_bytes, time_s)

        monkeypatch.setattr(SessionTransport, name, counted)
    return calls


_OUTAGE = LinkFaultPlan(faults=(outage_window(1.0, 3.0),))


class TestLazyPricing:
    @pytest.mark.parametrize("policy", [AlwaysLocal(), AlwaysRemote(), EntropyGated()])
    def test_a_policy_that_never_reads_the_price_never_prices(self, monkeypatch, policy):
        calls = _count_estimates(monkeypatch)
        report = _run(policy=policy, faults=_OUTAGE)
        assert report.n_requests == 4 * 50
        assert calls == []

    def test_deadline_aware_prices_each_hard_request_once(self, monkeypatch):
        """Past its deadline the policy reads the price twice (against
        the deadline, then against local); the transport prices it once."""
        calls = _count_estimates(monkeypatch)
        reads = []
        price = OffloadContext.est_remote_s

        def counted(ctx):
            reads.append(ctx)
            return price.fget(ctx)

        monkeypatch.setattr(OffloadContext, "est_remote_s", property(counted))
        report = _run(policy=DeadlineAware(0.5), faults=_OUTAGE)
        hard = int((report.outcome != 0).sum())
        assert (report.outcome == 1).sum() > 0  # some hard requests missed the deadline
        assert calls.count("estimate_s") == calls.count("estimate_down_s") == hard
        assert len(reads) > len({id(ctx) for ctx in reads}) == hard

    def test_past_the_deadline_one_context_prices_once(self):
        prices = []

        def price():
            prices.append(5.0)
            return 5.0

        ctx = OffloadContext(entropy=1.0, easy=False, est_local_s=0.2, est_remote_s=price)
        assert not DeadlineAware(0.1).offload(ctx)  # 5.0 > 0.1, then 5.0 >= 0.2
        assert ctx.est_remote_s == 5.0
        assert prices == [5.0]


def _session_state(tr: SessionTransport) -> tuple:
    session, aimd, link = tr.session, tr.aimd, tr.link
    return (
        tr.rng.bit_generator.state,
        session.state,
        session.config,
        session.n_established,
        session.n_naks,
        session.n_handshake_retx,
        session.n_carrier_drops,
        session.n_closed,
        aimd.cwnd,
        aimd.ssthresh,
        aimd.window,
        aimd.consecutive_timeouts,
        aimd.n_md,
        aimd.n_timeouts,
        aimd.n_slow_starts,
        link.up_free_s,
        link.down_free_s,
    )


@pytest.mark.parametrize("seed", range(4))
def test_session_estimates_leave_every_state_unchanged(seed):
    """Pricing reads the transport's live state and changes none of it,
    so pricing only the requests a policy reads moves no decision."""
    plan = LinkFaultPlan(
        faults=(
            outage_window(0.5, 0.4),
            degradation_window(1.2, 1.0, bandwidth_scale=0.2, loss_add=0.2),
            flap_at(2.5),
            outage_window(3.0, 0.3),
        )
    )
    link = SharedLink.from_network_link(lte(), faults=plan)
    tr = SessionTransport(link, rng=seed, aimd=AIMDConfig(init_cwnd=4))
    probes = np.linspace(0.0, 4.0, 41)
    for at in np.linspace(0.0, 3.6, 7):
        tr.send(9_000, max(at, tr.result.ack_s if tr.result else 0.0))
        before = _session_state(tr)
        for t in probes:
            tr.estimate_s(9_000, t)
            tr.estimate_down_s(40, t)
        assert _session_state(tr) == before
        tr.session.carrier_lost(tr.result.ack_s)  # and from a closed session
        before = _session_state(tr)
        for t in probes:
            tr.estimate_s(9_000, t)
            tr.estimate_down_s(40, t)
        assert _session_state(tr) == before


def test_radio_estimates_leave_every_state_unchanged():
    link = NetworkLink(
        name="radio", uplink_mbps=8.0, downlink_mbps=16.0, rtt_s=0.02, jitter_s=0.004,
        loss_rate=0.3, degradation=BandwidthTrace(times_s=(0.5, 1.0), scales=(0.1, 0.6)),
    )
    tr = LinkTransport(link, rng=7)

    def state():
        return (tr.rng.bit_generator.state, tr.up_free_s, tr.down_free_s)

    for at in (0.0, 0.4, 0.8, 1.2):
        tr.send(20_000, at)
        tr.send_down(40, at)
        before = state()
        for t in np.linspace(0.0, 2.0, 21):
            tr.estimate_s(20_000, t)
            tr.estimate_down_s(40, t)
        assert state() == before


def test_device_spec_validation():
    with pytest.raises(ValueError, match="rate_hz"):
        FleetDevice(rate_hz=0.0, n_requests=10, up_bytes=100)
    with pytest.raises(ValueError, match="n_requests"):
        FleetDevice(rate_hz=1.0, n_requests=0, up_bytes=100)
