"""EdgeTier on a session transport: session-riding offload over a shared
link — bandwidth collapse mid-transfer, mid-flight renegotiation,
oracle/--live parity on storming links, traced legs on both transports,
and parity with a one-device ``run_fleet_net``."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.eval.metrics import latency_percentiles
from repro.hw.devices import gci_cpu, raspberry_pi4
from repro.hw.network import lte, wifi
from repro.models.branchynet import BranchyLeNet
from repro.netsim import (
    AIMDConfig,
    FleetDevice,
    LinkFaultPlan,
    SessionTransport,
    SharedLink,
    degradation_window,
    flap_at,
    link_storm,
    outage_window,
    run_fleet_net,
)
from repro.netsim.fleet import LOCAL_EASY, LOCAL_HARD
from repro.obs.observer import Observer
from repro.obs.spans import SPAN_CLOUD, SPAN_DOWNLINK, SPAN_REQUEST, SPAN_UPLINK
from repro.offload.engine import EdgeTier, cloud_server_for
from repro.offload.policies import AlwaysLocal, AlwaysRemote, DeadlineAware, EntropyGated
from repro.serving.arrivals import poisson_arrivals
from repro.sim import offload_oracle
from repro.utils.rng import as_generator, derive_seed


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(0)
    images = rng.normal(size=(120, 1, 28, 28)).astype(np.float32)
    labels = rng.integers(0, 10, 120)
    arrival_s = poisson_arrivals(60.0, 120, rng=1)
    return images, arrival_s, labels


@pytest.fixture(scope="module")
def branchy(stream):
    model = BranchyLeNet(rng=0, entropy_threshold=1.0)
    images, _, _ = stream
    model.entropy_threshold = float(np.median(model.branch_entropies(images)))
    return model


def _transport(faults=None, seed=5, init_cwnd=16):
    link = SharedLink.from_network_link(wifi(), faults=faults or LinkFaultPlan())
    return SessionTransport(link, rng=seed, aimd=AIMDConfig(init_cwnd=init_cwnd))


def _same_fields(a, b) -> None:
    """Two reports agree field for field, NaN equal to NaN."""
    for f in dataclasses.fields(a):
        if f.name == "cloud_report":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), f.name
        else:
            assert x == y, f"{f.name}: {x!r} != {y!r}"


def _tier(branchy, policy, transport, **kwargs):
    cloud = cloud_server_for(
        policy, branchy, gci_cpu(), max_batch_size=8, max_wait_s=0.002
    )
    return EdgeTier(branchy, raspberry_pi4(), transport, cloud, policy, rng=3, **kwargs)


class TestTransportMode:
    def test_sessions_carry_every_offload(self, branchy, stream):
        images, arrival_s, labels = stream
        report = _tier(branchy, EntropyGated(), _transport()).serve(
            images, arrival_s, labels=labels
        )
        assert report.n_offloaded > 0
        assert report.n_sessions >= 1  # the handshake actually ran
        assert report.n_flap_drops == 0
        assert np.isfinite(report.p95_s)

    def test_constructor_requires_link_or_transport(self, branchy):
        cloud = cloud_server_for(
            EntropyGated(), branchy, gci_cpu(), max_batch_size=8
        )
        with pytest.raises(TypeError, match="NetworkLink or a SessionTransport"):
            EdgeTier(branchy, raspberry_pi4(), None, cloud, EntropyGated())

    def test_flap_mid_flight_renegotiates(self, branchy, stream):
        images, arrival_s, labels = stream
        # Flaps inside the serving horizon: in-air flights are presumed
        # lost, sessions drop, and the transfers resume after a fresh
        # conf-req/conf-ack — visible as extra sessions + flap drops.
        plan = LinkFaultPlan(faults=(flap_at(0.3), flap_at(0.9)))
        transport = _transport(faults=plan, init_cwnd=2)
        report = _tier(branchy, EntropyGated(), transport).serve(
            images, arrival_s, labels=labels
        )
        assert report.n_flap_drops >= 1
        # Every drop was followed by a fresh conf-req/conf-ack.
        assert report.n_sessions == report.n_flap_drops + 1
        # The ledger still balances: every offload completed.
        assert report.n_local_easy + report.n_local_hard + report.n_offloaded == 120

    @pytest.mark.parametrize("used", ["tier", "cloud"])
    def test_replay_is_refused_before_it_touches_anything(self, branchy, stream, used):
        """A tier replays one trace, on a cloud that has replayed none, as
        a cluster does: a second ``serve``, or a first one on a used
        cloud, raises before the device loop moves the session's AIMD
        window, the shared link's horizons or the sampling streams, and
        before a fresh observer records anything."""
        images, arrival_s, _ = stream
        first = _tier(branchy, EntropyGated(), _transport())
        assert first.serve(images, arrival_s).n_offloaded > 0
        if used == "tier":
            tier = first
        else:
            tier = EdgeTier(
                branchy, raspberry_pi4(), _transport(), first.cloud, EntropyGated(), rng=3
            )
        transport = tier.link

        def state():
            link, session = transport.link, transport.session
            return (
                transport.aimd.window,
                link.free_at("up"),
                link.free_at("down"),
                session.n_established,
                session.state,
                transport.rng.bit_generator.state,
                tier.rng.bit_generator.state,
            )

        before = state()
        tier.obs = fresh = Observer()
        with pytest.raises(RuntimeError, match="replays one trace"):
            tier.serve(images, arrival_s)
        assert state() == before
        assert not fresh.finalized and fresh.tracer.n_rows == 0

    def test_refused_trace_leaves_the_tier_usable(self, branchy, stream):
        """A trace the tier refuses is not its one replay: the same tier
        then serves a good trace exactly as a fresh one does."""
        images, arrival_s, labels = stream
        tier = _tier(branchy, EntropyGated(), _transport())
        with pytest.raises(ValueError):
            tier.serve(images[:2], arrival_s[:1])  # length mismatch
        with pytest.raises(ValueError):
            tier.serve(images[:2], arrival_s[1::-1])  # unsorted
        got = tier.serve(images, arrival_s, labels=labels)
        want = _tier(branchy, EntropyGated(), _transport()).serve(
            images, arrival_s, labels=labels
        )
        assert got.n_offloaded > 0
        _same_fields(got, want)


class TestBandwidthCollapseFallback:
    def test_deadline_aware_goes_local_when_the_link_collapses(
        self, branchy, stream
    ):
        images, arrival_s, labels = stream
        # Healthy for the first second, then the link collapses to 0.2%
        # of nominal for the rest of the run — every in-progress
        # transfer slows to a crawl and the live estimate balloons past
        # the deadline.
        collapse = LinkFaultPlan(
            faults=(degradation_window(1.0, 1e3, bandwidth_scale=0.002),)
        )
        deadline = 0.05
        report = _tier(
            branchy, DeadlineAware(deadline), _transport(faults=collapse)
        ).serve(images, arrival_s, labels=labels)
        # The aggregate tells the story: the healthy prefix offloads,
        # then hard requests pin local once the estimate collapses.
        assert report.n_offloaded > 0, "healthy prefix offloads"
        assert report.n_local_hard > 0, "post-collapse hard requests stay local"
        n_early = int((arrival_s < 1.0).sum())
        assert report.n_offloaded < n_early, (
            "offloads stop once the trace collapses"
        )

    def test_estimates_track_the_live_window(self, branchy):
        transport = _transport(init_cwnd=1)
        before = transport.estimate_s(8_000, 0.0)
        transport.aimd.on_ack(transport.aimd.window)  # window grew
        transport.session.open(0.0)
        after = transport.estimate_s(8_000, 0.1)
        assert after < before  # fewer flights + no handshake round


class TestOracleLiveParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_storming_link_replays_field_for_field(self, branchy, stream, seed):
        images, arrival_s, labels = stream
        ids = np.arange(120)
        plan = LinkFaultPlan(faults=(flap_at(0.4),))
        policy = EntropyGated()

        def run(oracle):
            transport = _transport(faults=plan, seed=seed, init_cwnd=2)
            cloud_kwargs = dict(max_batch_size=8, max_wait_s=0.002)
            if oracle is not None:
                cloud = cloud_server_for(
                    policy, branchy, gci_cpu(), oracle=oracle, **cloud_kwargs
                )
                tier = EdgeTier(
                    branchy,
                    raspberry_pi4(),
                    transport,
                    cloud,
                    policy,
                    oracle=oracle,
                    rng=9,
                )
                return tier.serve(ids, arrival_s, labels=labels)
            cloud = cloud_server_for(policy, branchy, gci_cpu(), **cloud_kwargs)
            tier = EdgeTier(branchy, raspberry_pi4(), transport, cloud, policy, rng=9)
            return tier.serve(images, arrival_s, labels=labels)

        live = run(None)
        orc = run(offload_oracle(branchy, images))
        _same_fields(live, orc)
        assert live.n_sessions == orc.n_sessions
        assert live.n_flap_drops == orc.n_flap_drops


class TestTracedLegs:
    @pytest.mark.parametrize("kind", ["network-link", "session"])
    def test_legs_tile_each_offload_and_skip_outages(self, branchy, stream, kind):
        """Tracing changes no number, and each offload's three legs chain
        from the uplink to the answer without starting inside an outage."""
        images, _, _ = stream
        # At 120 req/s a session's response lands just after the outage
        # begins (request 26, cloud done at 0.2515 s).
        arrival_s = poisson_arrivals(120.0, len(images), rng=1)
        policy = AlwaysRemote()

        def run(obs):
            if kind == "network-link":
                link, windows = wifi(), ()
            else:
                plan = LinkFaultPlan(faults=(outage_window(0.25, 0.1),))
                shared = SharedLink.from_network_link(wifi(), faults=plan)
                link = SessionTransport(shared, rng=5)
                windows = plan.outages
            cloud = cloud_server_for(
                policy, branchy, gci_cpu(), max_batch_size=8, max_wait_s=0.002
            )
            tier = EdgeTier(branchy, raspberry_pi4(), link, cloud, policy, rng=3, obs=obs)
            return tier.serve(images, arrival_s), windows

        obs = Observer()
        (traced, windows), (plain, _) = run(obs), run(None)
        _same_fields(traced, plain)

        spans = obs.spans
        legs = {}
        for span_kind in (SPAN_REQUEST, SPAN_UPLINK, SPAN_CLOUD, SPAN_DOWNLINK):
            rows = np.flatnonzero(spans.kind == span_kind)
            order = rows[np.argsort(spans.req[rows], kind="stable")]
            legs[span_kind] = order
        assert plain.n_offloaded == plain.n_requests  # AlwaysRemote
        offloaded = np.arange(plain.n_requests)
        for span_kind in (SPAN_UPLINK, SPAN_CLOUD, SPAN_DOWNLINK):
            # Exactly one leg of each kind per offloaded request.
            np.testing.assert_array_equal(spans.req[legs[span_kind]], offloaded)
        up, cloud, down, request = (
            legs[SPAN_UPLINK], legs[SPAN_CLOUD], legs[SPAN_DOWNLINK], legs[SPAN_REQUEST]
        )
        np.testing.assert_array_equal(spans.end_s[up], spans.start_s[cloud])
        assert np.all(spans.end_s[cloud] <= spans.start_s[down])
        np.testing.assert_array_equal(spans.end_s[down], spans.end_s[request])
        for start in spans.start_s[down]:
            assert not any(lo <= start < hi for lo, hi in windows), start


#: The full grid, crossed so that no cell is picked by its result:
#: seeds 0-5 × wifi/lte × clean/storm × four policies × 2 and 8 req/s.
#: Requests queue on the device in many cells, most of all at 8 req/s;
#: an 8 req/s cell's id ends in "-8hz".
_PARITY_POLICIES = (EntropyGated(), DeadlineAware(0.25), DeadlineAware(0.12), AlwaysRemote())
_PARITY_CELLS = [
    (seed, preset, storm, policy, rate_hz)
    for rate_hz in (2.0, 8.0)
    for seed in range(6)
    for preset in (wifi, lte)
    for storm in (False, True)
    for policy in _PARITY_POLICIES
]


class TestFleetParity:
    """One device on ``EdgeTier`` and on ``run_fleet_net`` is one model.

    The differential gate of the shared device loop: both entry points
    drive it, so they agree with jitter on, whether or not requests
    queue on the device.
    """

    @pytest.fixture(scope="class")
    def two_image_oracle(self, branchy, stream):
        images, _, _ = stream
        entropy = branchy.branch_entropies(images)
        # Pool id 0 exits at the branch; pool id 1 is flagged hard.
        pool = images[[int(np.argmin(entropy)), int(np.argmax(entropy))]]
        return offload_oracle(branchy, pool)

    @pytest.mark.parametrize(
        "seed, preset, storm, policy, rate_hz",
        _PARITY_CELLS,
        ids=[
            f"seed{seed}-{preset.__name__}-{'storm' if storm else 'clean'}-"
            f"{policy.name}{getattr(policy, 'deadline_s', '')}"
            f"{'' if rate_hz == 2.0 else f'-{rate_hz:g}hz'}"
            for seed, preset, storm, policy, rate_hz in _PARITY_CELLS
        ],
    )
    def test_single_device_matches_run_fleet_net(
        self, branchy, two_image_oracle, seed, preset, storm, policy, rate_hz
    ):
        oracle = two_image_oracle

        def shared():
            plan = link_storm(20.0, rng=seed) if storm else LinkFaultPlan()
            return SharedLink.from_network_link(preset(), faults=plan)

        cloud = cloud_server_for(
            policy, branchy, gci_cpu(), oracle=oracle, max_batch_size=1, max_wait_s=0.0
        )
        fleet_seed = int(as_generator(seed).integers(2**31 - 1))
        transport = SessionTransport(shared(), rng=derive_seed(fleet_seed, "transport-0"))
        tier = EdgeTier(branchy, raspberry_pi4(), transport, cloud, policy, oracle=oracle)
        device = FleetDevice(
            rate_hz=rate_hz,
            n_requests=40,
            up_bytes=tier.codec.wire_bytes(oracle.boundary_elems(policy.payload)),
            down_bytes=40,
            gate_s=tier.gate_s,
            local_s=tier.trunk_extra_s,
            cloud_s=cloud.replicas[0].backend.batch_service_s(1),
        )
        fleet = run_fleet_net(shared(), (device,), policy, deadline_s=1.0, rng=seed)

        # run_fleet_net's own arrivals and hard mask, drawn as it draws them.
        dev_rng = as_generator(derive_seed(fleet_seed, "device-0"))
        gaps = dev_rng.exponential(1.0 / device.rate_hz, size=device.n_requests)
        hard = dev_rng.random(device.n_requests) < device.p_hard
        arrival_s = np.cumsum(gaps)
        np.testing.assert_array_equal(arrival_s, fleet.arrival_s)
        if not policy.runs_gate:
            # AlwaysRemote ships raw inputs, and the cloud's full model
            # exits early on every one: its service time is one constant,
            # as the fleet's is.
            hard[:] = False

        report = tier.serve(hard.astype(np.int64), arrival_s)
        assert (report.n_offloaded, report.n_local_hard, report.n_local_easy) == (
            fleet.n_offloaded,
            int((fleet.outcome == LOCAL_HARD).sum()),
            int((fleet.outcome == LOCAL_EASY).sum()),
        )
        sojourn = fleet.sojourn_s
        p50, _, p99 = latency_percentiles(sojourn)
        assert (report.mean_s, report.p50_s, report.p99_s, report.max_s) == (
            float(sojourn.mean()), p50, p99, float(sojourn.max())
        )


_NAN, _INF = float("nan"), float("inf")


def _fleet_device(**kwargs):
    return FleetDevice(**{"rate_hz": 10.0, "n_requests": 20, "up_bytes": 100, **kwargs})


def _fleet_run(deadline_s):
    link = SharedLink.from_network_link(lte())
    return run_fleet_net(link, (_fleet_device(),), AlwaysLocal(), deadline_s=deadline_s)


_BAD_SETTINGS = {
    "fleet-rate-nan": lambda b: _fleet_device(rate_hz=_NAN),
    "fleet-rate-inf": lambda b: _fleet_device(rate_hz=_INF),
    "fleet-gate-nan": lambda b: _fleet_device(gate_s=_NAN),
    "fleet-gate-inf": lambda b: _fleet_device(gate_s=_INF),
    "fleet-local-nan": lambda b: _fleet_device(local_s=_NAN),
    "fleet-cloud-nan": lambda b: _fleet_device(cloud_s=_NAN),
    "fleet-cloud-inf": lambda b: _fleet_device(cloud_s=_INF),
    "run-deadline-nan": lambda b: _fleet_run(_NAN),
    "run-deadline-inf": lambda b: _fleet_run(_INF),
    "deadline-aware-nan": lambda b: DeadlineAware(_NAN),
    "deadline-aware-inf": lambda b: DeadlineAware(_INF),
}


@pytest.mark.parametrize("build", _BAD_SETTINGS.values(), ids=_BAD_SETTINGS)
def test_non_finite_offload_settings_fail_at_construction(branchy, build):
    """NaN or infinite settings raise before any request is replayed."""
    with pytest.raises(ValueError):
        build(branchy)
