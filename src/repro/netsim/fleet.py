"""Fleet network simulator: many edge devices contending for one uplink.

:class:`~repro.offload.engine.EdgeTier` is one device against a private
link; this module is the *fleet* view the shared-link model exists for.
:func:`run_fleet_net` replays N devices' arrival processes through one
:class:`~repro.netsim.shared.SharedLink` on a single heap-driven
virtual clock: every device owns a
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
from repro.netsim.transport import SessionTransport
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
    simulator studies the network, not the model.
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
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {self.n_requests}")
        if self.up_bytes <= 0 or self.down_bytes <= 0:
            raise ValueError("payload sizes must be positive")
        if min(self.gate_s, self.local_s, self.cloud_s) < 0:
            raise ValueError("compute times must be non-negative")
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


class _DeviceState:
    """Mutable per-device bookkeeping for the event loop (internal)."""

    def __init__(self, spec, transport, arrivals, hard, entropy, base):
        self.spec = spec
        self.transport = transport
        self.arrivals = arrivals
        self.hard = hard
        self.entropy = entropy
        self.base = base  # global request-id offset
        self.next_req = 0
        self.edge_free = 0.0
        self.inflight_req = -1
        self.delivered_bytes = 0
        self.sent_bytes = 0
        self.retx_bytes = 0
        self.flights = 0
        self.timeouts = 0
        self.first_tx_s = math.inf
        self.last_ack_s = 0.0
        self.max_amplification = 1.0
        self.n_offloaded = 0


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
    of them at once.  Devices are strictly serial on the edge side (the
    next request gates after the previous one's local compute or uplink
    ack); cloud service and the downlink overlap.
    """
    devices = tuple(devices)
    if not devices:
        raise ValueError("run_fleet_net needs at least one device")
    if deadline_s <= 0:
        raise ValueError(f"deadline_s must be positive, got {deadline_s}")
    root = as_generator(rng)
    fleet_seed = int(root.integers(2**31 - 1))

    def policy_of(dev_id: int) -> OffloadPolicy:
        if isinstance(policy_for, OffloadPolicy):
            return policy_for
        return policy_for(dev_id)

    states: list[_DeviceState] = []
    total = 0
    for dev_id, spec in enumerate(devices):
        dev_rng = as_generator(derive_seed(fleet_seed, f"device-{dev_id}"))
        gaps = dev_rng.exponential(1.0 / spec.rate_hz, size=spec.n_requests)
        arrivals = np.cumsum(gaps)
        hard = dev_rng.random(spec.n_requests) < spec.p_hard
        entropy = np.where(hard, 1.0, 0.0)
        transport = SessionTransport(
            link,
            rng=as_generator(derive_seed(fleet_seed, f"transport-{dev_id}")),
            aimd=aimd,
            max_attempts=max_attempts,
            obs=obs,
            device_id=dev_id,
        )
        states.append(_DeviceState(spec, transport, arrivals, hard, entropy, total))
        total += spec.n_requests

    arrival_s = np.concatenate([s.arrivals for s in states])
    completion_s = np.full(total, np.nan)
    outcome = np.full(total, LOCAL_EASY, dtype=np.int64)
    device_of = np.concatenate(
        [np.full(s.spec.n_requests, i, dtype=np.int64) for i, s in enumerate(states)]
    )
    delivered_count = np.zeros(total, dtype=np.int64)

    # Event kinds: "req" = device considers its next request, "adv" =
    # drive the device's in-flight uplink transfer, "down" = a cloud
    # response reaches the downlink serializer.
    heap: list[tuple[float, int, str, int, int]] = []
    seq = 0

    def push(t: float, kind: str, dev: int, req: int = -1) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, dev, req))
        seq += 1

    for dev_id, st in enumerate(states):
        push(float(st.arrivals[0]), "req", dev_id)

    def handle_req(st: _DeviceState, dev_id: int, now: float) -> None:
        i = st.next_req
        spec = st.spec
        arrival = float(st.arrivals[i])
        start = max(arrival, st.edge_free, now)
        gate_done = start + spec.gate_s
        st.edge_free = gate_done
        req = st.base + i
        easy = not bool(st.hard[i])
        est_local = (gate_done - arrival) + (0.0 if easy else spec.local_s)
        est_remote = (
            (gate_done - arrival)
            + st.transport.estimate_s(spec.up_bytes, gate_done)
            + spec.cloud_s
            + st.transport.estimate_down_s(spec.down_bytes, gate_done)
        )
        ctx = OffloadContext(
            entropy=float(st.entropy[i]),
            easy=easy,
            est_local_s=est_local,
            est_remote_s=est_remote,
        )
        st.next_req += 1
        if not policy_of(dev_id).offload(ctx):
            if easy:
                completion_s[req] = gate_done
            else:
                outcome[req] = LOCAL_HARD
                completion_s[req] = gate_done + spec.local_s
                st.edge_free = completion_s[req]
            schedule_next(st, dev_id)
            return
        outcome[req] = OFFLOADED
        st.n_offloaded += 1
        st.inflight_req = req
        st.transport.start(spec.up_bytes, gate_done)
        push(gate_done, "adv", dev_id)

    def schedule_next(st: _DeviceState, dev_id: int) -> None:
        if st.next_req < st.spec.n_requests:
            push(max(float(st.arrivals[st.next_req]), st.edge_free), "req", dev_id)

    def handle_adv(st: _DeviceState, dev_id: int, now: float) -> None:
        status, t_next = st.transport.advance(now)
        if status == "wait":
            push(t_next, "adv", dev_id)
            return
        result = st.transport.result
        req = st.inflight_req
        st.inflight_req = -1
        st.delivered_bytes += result.n_bytes
        st.sent_bytes += result.sent_bytes
        st.retx_bytes += result.retx_bytes
        st.flights += result.flights
        st.timeouts += result.timeouts
        st.first_tx_s = min(st.first_tx_s, result.start_s)
        st.last_ack_s = max(st.last_ack_s, result.ack_s)
        st.max_amplification = max(st.max_amplification, result.amplification)
        # The radio is held until the sender sees the final ack; then
        # the next request may gate.
        st.edge_free = max(st.edge_free, result.ack_s)
        push(t_next + st.spec.cloud_s, "down", dev_id, req)
        schedule_next(st, dev_id)

    def handle_down(st: _DeviceState, dev_id: int, req: int, now: float) -> None:
        _, arrival, _ = st.transport.send_down(st.spec.down_bytes, now)
        completion_s[req] = arrival
        delivered_count[req] += 1

    while heap:
        t, _, kind, dev_id, req = heapq.heappop(heap)
        st = states[dev_id]
        if kind == "req":
            handle_req(st, dev_id, t)
        elif kind == "adv":
            handle_adv(st, dev_id, t)
        else:
            handle_down(st, dev_id, req, t)

    stats = tuple(
        DeviceStats(
            device_id=i,
            n_requests=st.spec.n_requests,
            n_offloaded=st.n_offloaded,
            delivered_bytes=st.delivered_bytes,
            sent_bytes=st.sent_bytes,
            retx_bytes=st.retx_bytes,
            first_tx_s=0.0 if math.isinf(st.first_tx_s) else st.first_tx_s,
            last_ack_s=st.last_ack_s,
            flights=st.flights,
            timeouts=st.timeouts,
            md_events=st.transport.aimd.n_md,
            sessions=st.transport.session.n_established,
            handshake_retx=st.transport.session.n_handshake_retx,
            carrier_drops=st.transport.session.n_carrier_drops,
            flap_resumes=st.transport.n_flap_resumes,
            max_amplification=st.max_amplification,
        )
        for i, st in enumerate(states)
    )
    policy_name = (
        policy_for.name if isinstance(policy_for, OffloadPolicy) else policy_of(0).name
    )
    return FleetNetReport(
        policy=policy_name,
        link=link.name,
        deadline_s=float(deadline_s),
        arrival_s=arrival_s,
        completion_s=completion_s,
        outcome=outcome,
        device_of=device_of,
        delivered_count=delivered_count,
        devices=stats,
    )
