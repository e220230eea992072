"""Fleet network simulator: many edge devices contending for one uplink.

This module holds the one offload event loop, a heap-driven device
loop on the virtual clock.  :class:`~repro.offload.engine.EdgeTier`
drives it with one device against a real cloud tier;
:func:`run_fleet_net` is the *fleet* view the shared-link model exists
for.  It replays N devices' arrival processes through one
:class:`~repro.netsim.shared.SharedLink`: every device owns a
:class:`~repro.netsim.transport.SessionTransport` (session FSM + AIMD
window), offload decisions reuse the *real*
:class:`~repro.offload.policies.OffloadPolicy` objects through the same
:class:`~repro.offload.policies.OffloadContext` the edge tier builds,
and uplink flights interleave through the shared serializer — so
fair-share bandwidth division and graceful deadline degradation are
measured outcomes, not parameters.

Compute is abstracted to calibrated constants (gate, local trunk,
cloud service) because the object under test is the *network*: the
netchaos experiment and the chaos invariants compare policies on
deadline-SLO attainment while a seeded
:class:`~repro.netsim.faults.LinkFaultPlan` batters the link, and the
:class:`FleetNetReport` carries the per-request delivery ledger
(``delivered_count``) that proves no transfer was lost or
double-delivered across session churn.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.netsim.congestion import AIMDConfig
from repro.netsim.shared import SharedLink
from repro.netsim.transport import LinkTransport, SessionTransfer, SessionTransport
from repro.obs.spans import SPAN_CLOUD, SPAN_DOWNLINK, SPAN_EDGE_GATE, SPAN_UPLINK
from repro.offload.policies import OffloadContext, OffloadPolicy
from repro.utils.rng import as_generator, derive_seed

__all__ = ["FleetDevice", "DeviceStats", "FleetNetReport", "run_fleet_net"]

# Per-request outcome codes (match repro.offload.engine's convention).
LOCAL_EASY, LOCAL_HARD, OFFLOADED = 0, 1, 2


@dataclass(frozen=True)
class FleetDevice:
    """One edge device's workload and calibrated compute constants.

    ``rate_hz`` drives a Poisson arrival process over ``n_requests``;
    ``p_hard`` is the fraction the branch gate flags hard (easy
    requests exit at the gate and never touch the link).  ``gate_s`` /
    ``local_s`` / ``cloud_s`` are the stem+branch pass, the extra local
    trunk, and the cloud service time — constants, because the fleet
    simulator studies the network, not the model.  A policy with
    ``runs_gate = False`` never pays ``gate_s``, as on the edge tier.
    """

    rate_hz: float
    n_requests: int
    up_bytes: int
    down_bytes: int = 40
    gate_s: float = 2e-3
    local_s: float = 20e-3
    cloud_s: float = 2e-3
    p_hard: float = 0.6

    def __post_init__(self) -> None:
        if not 0 < self.rate_hz < math.inf:
            raise ValueError(f"rate_hz must be positive and finite, got {self.rate_hz}")
        if self.n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {self.n_requests}")
        if self.up_bytes <= 0 or self.down_bytes <= 0:
            raise ValueError("payload sizes must be positive")
        for name in ("gate_s", "local_s", "cloud_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # false for NaN too
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 <= self.p_hard <= 1.0:
            raise ValueError(f"p_hard must be in [0, 1], got {self.p_hard}")


@dataclass(frozen=True)
class DeviceStats:
    """One device's network ledger after a fleet run."""

    device_id: int
    n_requests: int
    n_offloaded: int
    delivered_bytes: int
    sent_bytes: int
    retx_bytes: int
    first_tx_s: float
    last_ack_s: float
    flights: int
    timeouts: int
    md_events: int
    sessions: int
    handshake_retx: int
    carrier_drops: int
    flap_resumes: int
    max_amplification: float

    @property
    def goodput_bps(self) -> float:
        """Delivered payload bits/s over the device's active uplink span."""
        span = self.last_ack_s - self.first_tx_s
        return 8.0 * self.delivered_bytes / span if span > 0 else 0.0


@dataclass(frozen=True)
class FleetNetReport:
    """Everything one fleet-network run produced.

    ``delivered_count[i]`` is how many times request ``i``'s response
    arrived back at its device — the chaos harness asserts it is
    exactly 1 for every offloaded request and 0 otherwise (no transfer
    lost, none double-delivered, across any amount of session churn).
    """

    policy: str
    link: str
    deadline_s: float
    arrival_s: np.ndarray = field(repr=False)
    completion_s: np.ndarray = field(repr=False)
    outcome: np.ndarray = field(repr=False)
    device_of: np.ndarray = field(repr=False)
    delivered_count: np.ndarray = field(repr=False)
    devices: tuple[DeviceStats, ...] = ()

    @property
    def n_requests(self) -> int:
        return int(self.arrival_s.size)

    @property
    def n_offloaded(self) -> int:
        return int((self.outcome == OFFLOADED).sum())

    @property
    def n_local(self) -> int:
        return self.n_requests - self.n_offloaded

    @property
    def sojourn_s(self) -> np.ndarray:
        """Per-request completion latency (arrival to answer)."""
        return self.completion_s - self.arrival_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests answered within the deadline."""
        if not self.n_requests:
            return 1.0
        return float((self.sojourn_s <= self.deadline_s).mean())

    @property
    def n_lost(self) -> int:
        """Offloaded requests whose response never arrived (must be 0)."""
        offl = self.outcome == OFFLOADED
        return int((self.delivered_count[offl] == 0).sum())

    @property
    def n_double_delivered(self) -> int:
        """Responses delivered more than once (must be 0)."""
        return int((self.delivered_count > 1).sum())

    @property
    def retx_amplification(self) -> float:
        """Worst bytes-on-wire / payload ratio across every transfer."""
        return max((d.max_amplification for d in self.devices), default=1.0)

    @property
    def makespan_s(self) -> float:
        return float(self.completion_s.max() - self.arrival_s.min())

    def goodputs_bps(self) -> np.ndarray:
        """Per-device uplink goodput, in device order (offloaders only)."""
        return np.array(
            [d.goodput_bps for d in self.devices if d.n_offloaded], dtype=np.float64
        )


_REQ, _ADV = 0, 1  # device loop event kinds


@dataclass(eq=False)
class _Device:
    """One device inside :class:`_DeviceLoop`: its stream and its ledger.

    ``arrivals``, ``entropy`` and ``easy`` are per request; ``gate_s``
    is the stem+branch pass, ``local_s`` the extra local trunk, and
    ``cloud_est_s`` the cloud service time the remote estimate assumes.
    """

    arrivals: np.ndarray
    entropy: np.ndarray
    easy: np.ndarray
    policy: OffloadPolicy
    transport: SessionTransport | LinkTransport
    gate_s: float
    local_s: float
    cloud_est_s: float
    up_bytes: int
    down_bytes: int
    base: int = 0  # global id of the device's first request
    next_req: int = 0
    inflight_req: int = -1
    edge_free: float = 0.0
    edge_busy: float = 0.0  # gate + local trunk seconds, in request order
    radio_busy: float = 0.0  # uplink serialization seconds, in request order
    transfers: list[SessionTransfer] = field(default_factory=list)  # in request order


class _DeviceLoop:
    """The offload event loop: devices gate, decide and ship on one clock.

    :func:`run_fleet_net` drives it with N devices on one shared link;
    :meth:`~repro.offload.engine.EdgeTier.serve` with one device, whose
    shipped payloads it then serves on a real cloud tier.  :meth:`run`
    takes every request to its decision and every uplink to its
    delivery; :meth:`downlink` then answers what the cloud finished.

    A device considers one request at a time.  It pays the gate unless
    its policy has ``runs_gate = False``, decides on
    :class:`~repro.offload.policies.OffloadContext` estimates read from
    its transport, and finishes locally or hands the payload to the
    transport, which the loop drives through ``start``/``advance``.  The
    transfer's ``release_s`` says when the device may consider its next
    request, so the transport, not the loop, decides the device hold.
    """

    def __init__(self, devices: list[_Device], obs=None) -> None:
        self.devices = devices
        self.obs = obs
        total = 0
        for dev in devices:
            dev.base = total
            total += len(dev.arrivals)
        self.arrival_s = np.concatenate([dev.arrivals for dev in devices])
        self.device_of = np.repeat(
            np.arange(len(devices), dtype=np.int64), [len(dev.arrivals) for dev in devices]
        )
        self.outcome = np.full(total, LOCAL_EASY, dtype=np.int64)
        self.completion_s = np.full(total, np.nan)
        self.ready_s = np.full(total, np.nan)  # gate done, or hand-over
        self.delivered_s = np.full(total, np.nan)  # uplink reaches the cloud

    def run(self) -> None:
        """Decide every request; drive every uplink to its delivery."""
        devices, obs = self.devices, self.obs
        outcome, completion, ready_s = self.outcome, self.completion_s, self.ready_s
        heap = [(float(dev.arrivals[0]), k, _REQ, k) for k, dev in enumerate(devices)]
        heapq.heapify(heap)
        seq = len(heap)
        while heap:
            now, _, kind, k = heapq.heappop(heap)
            dev = devices[k]
            transport = dev.transport
            if kind == _ADV:
                status, t_next = transport.advance(now)
                if status == "wait":
                    heapq.heappush(heap, (t_next, seq, _ADV, k))
                    seq += 1
                    continue
                result = transport.result
                req = dev.inflight_req
                self.delivered_s[req] = t_next
                dev.transfers.append(result)
                dev.radio_busy += result.tx_s
                # The transport decides how long the offload holds the device.
                dev.edge_free = max(dev.edge_free, result.release_s)
                if obs is not None:
                    obs.on_leg(SPAN_UPLINK, req, result.start_s, t_next)
            else:
                i = dev.next_req
                dev.next_req += 1
                req = dev.base + i
                arrival = float(dev.arrivals[i])
                ready = start = max(arrival, dev.edge_free)
                if dev.policy.runs_gate:
                    ready = dev.edge_free = start + dev.gate_s
                    dev.edge_busy += dev.gate_s
                    if obs is not None:
                        obs.on_leg(SPAN_EDGE_GATE, req, start, ready)
                ready_s[req] = ready
                easy = bool(dev.easy[i])
                ctx = OffloadContext(
                    entropy=float(dev.entropy[i]),
                    easy=easy,
                    est_local_s=(ready - arrival) + (0.0 if easy else dev.local_s),
                    # Link legs are estimated from the transport's live
                    # state, so degradation and outages reach the policy
                    # before an uplink backlog builds.
                    est_remote_s=(
                        (ready - arrival)
                        + transport.estimate_s(dev.up_bytes, ready)
                        + dev.cloud_est_s
                        + transport.estimate_down_s(dev.down_bytes, ready)
                    ),
                )
                if dev.policy.offload(ctx):
                    outcome[req] = OFFLOADED
                    dev.inflight_req = req
                    transport.start(dev.up_bytes, ready)
                    heapq.heappush(heap, (ready, seq, _ADV, k))
                    seq += 1
                    continue
                if easy:
                    completion[req] = ready
                else:
                    outcome[req] = LOCAL_HARD
                    completion[req] = dev.edge_free = ready + dev.local_s
                    dev.edge_busy += dev.local_s
            if dev.next_req < len(dev.arrivals):
                t = max(float(dev.arrivals[dev.next_req]), dev.edge_free)
                heapq.heappush(heap, (t, seq, _REQ, k))
                seq += 1

    def downlink(self, req, cloud_in, cloud_out) -> tuple[np.ndarray, int]:
        """Ride each answered response back; return its ids and retransmits.

        Request ``req[k]`` reached the cloud at ``cloud_in[k]`` and left
        it at ``cloud_out[k]`` (NaN: never answered, so it stays
        unanswered).  Responses reserve their device's downlink in order
        of cloud completion, then cloud arrival, then request id, after
        every uplink, so a transport draws its downlink jitter after its
        uplink draws.  The returned ids are in that order.
        """
        devices, obs, completion = self.devices, self.obs, self.completion_s
        order = np.lexsort((req, cloud_in, cloud_out))
        order = order[np.isfinite(cloud_out[order])]
        n_retransmits = 0
        for k in order.tolist():
            r = int(req[k])
            dev = devices[self.device_of[r]]
            t_in, t_out = float(cloud_in[k]), float(cloud_out[k])
            start, arrival, retx = dev.transport.send_down(dev.down_bytes, t_out)
            completion[r] = arrival
            n_retransmits += retx
            if obs is not None:
                obs.on_leg(SPAN_CLOUD, r, t_in, t_out)
                obs.on_leg(SPAN_DOWNLINK, r, start, arrival)
        return req[order], n_retransmits


def _device_stats(dev_id: int, dev: _Device) -> DeviceStats:
    transfers, transport = dev.transfers, dev.transport
    return DeviceStats(
        device_id=dev_id,
        n_requests=len(dev.arrivals),
        n_offloaded=len(transfers),
        delivered_bytes=sum(t.n_bytes for t in transfers),
        sent_bytes=sum(t.sent_bytes for t in transfers),
        retx_bytes=sum(t.retx_bytes for t in transfers),
        first_tx_s=min((t.start_s for t in transfers), default=0.0),
        last_ack_s=max((t.ack_s for t in transfers), default=0.0),
        flights=sum(t.flights for t in transfers),
        timeouts=sum(t.timeouts for t in transfers),
        md_events=transport.aimd.n_md,
        sessions=transport.session.n_established,
        handshake_retx=transport.session.n_handshake_retx,
        carrier_drops=transport.session.n_carrier_drops,
        flap_resumes=transport.n_flap_resumes,
        max_amplification=max((t.amplification for t in transfers), default=1.0),
    )


def run_fleet_net(
    link: SharedLink,
    devices: tuple[FleetDevice, ...] | list[FleetDevice],
    policy_for,
    deadline_s: float,
    rng=None,
    aimd: AIMDConfig | None = None,
    max_attempts: int = 8,
    obs=None,
) -> FleetNetReport:
    """Replay a device fleet through one shared link; return the ledger.

    ``policy_for`` is either one :class:`OffloadPolicy` (shared by the
    fleet) or a callable ``device_id -> OffloadPolicy``.  Each device
    gets its own RNG stream (derived from ``rng``) and its own
    transport, so fleets replay identically regardless of interleaving;
    the link's :class:`~repro.netsim.faults.LinkFaultPlan` batters all
    of them at once.  A device considers its next request once the
    previous one finished locally or its uplink was acked: a
    :class:`~repro.netsim.transport.SessionTransport` carries one
    transfer at a time.  Cloud service and the downlink overlap.
    ``obs`` receives the transports' session and window events.
    """
    devices = tuple(devices)
    if not devices:
        raise ValueError("run_fleet_net needs at least one device")
    if not 0 < deadline_s < math.inf:
        raise ValueError(f"deadline_s must be positive and finite, got {deadline_s}")
    root = as_generator(rng)
    fleet_seed = int(root.integers(2**31 - 1))
    states = []
    for dev_id, spec in enumerate(devices):
        dev_rng = as_generator(derive_seed(fleet_seed, f"device-{dev_id}"))
        gaps = dev_rng.exponential(1.0 / spec.rate_hz, size=spec.n_requests)
        hard = dev_rng.random(spec.n_requests) < spec.p_hard
        transport = SessionTransport(
            link,
            rng=as_generator(derive_seed(fleet_seed, f"transport-{dev_id}")),
            aimd=aimd,
            max_attempts=max_attempts,
            obs=obs,
            device_id=dev_id,
        )
        policy = policy_for if isinstance(policy_for, OffloadPolicy) else policy_for(dev_id)
        states.append(
            _Device(
                np.cumsum(gaps), np.where(hard, 1.0, 0.0), ~hard, policy, transport,
                gate_s=spec.gate_s, local_s=spec.local_s, cloud_est_s=spec.cloud_s,
                up_bytes=spec.up_bytes, down_bytes=spec.down_bytes,
            )
        )

    loop = _DeviceLoop(states)
    loop.run()
    # The cloud is a constant service time per device, never a queue.
    req = np.flatnonzero(loop.outcome == OFFLOADED)
    cloud_in = loop.delivered_s[req]
    cloud_s = np.array([spec.cloud_s for spec in devices])[loop.device_of[req]]
    delivered, _ = loop.downlink(req, cloud_in, cloud_in + cloud_s)
    return FleetNetReport(
        policy=states[0].policy.name,
        link=link.name,
        deadline_s=float(deadline_s),
        arrival_s=loop.arrival_s,
        completion_s=loop.completion_s,
        outcome=loop.outcome,
        device_of=loop.device_of,
        delivered_count=np.bincount(delivered, minlength=loop.outcome.size),
        devices=tuple(_device_stats(i, dev) for i, dev in enumerate(states)),
    )
