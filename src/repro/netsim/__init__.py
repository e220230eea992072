"""Protocol-faithful network simulation for the offload path.

:mod:`repro.hw.network` models a link as an open-loop sampler —
bandwidth is a preset, loss triggers blind retransmits, links never
contend.  This package closes the loop, in four layers that compose
bottom-up:

* :mod:`repro.netsim.faults` — seeded, replayable link fault plans
  (outage / degrade / flap windows), validated by the same shared
  window validator the rest of :mod:`repro.faults` uses;
* :mod:`repro.netsim.session` — PPP/LCP-flavoured connection sessions:
  a CLOSED→NEGOTIATING→ESTABLISHED→CLOSING FSM with
  conf-req/conf-ack/conf-nak negotiation of MTU and codec, and carrier
  drops that force mid-flight renegotiation;
* :mod:`repro.netsim.congestion` — AIMD congestion control (slow
  start, additive increase, multiplicative decrease, RTO backoff) so
  uplink throughput *emerges* from loss;
* :mod:`repro.netsim.shared` + :mod:`repro.netsim.transport` — one
  contended :class:`SharedLink` serializer per direction that every
  device's :class:`SessionTransport` reserves self-clocked flights on,
  which is the whole fair-share contention model, and
  :class:`LinkTransport`, a private radio behind the same surface;
* :mod:`repro.netsim.fleet` — the heap-driven multi-device simulator
  that replays entire edge fleets (real
  :class:`~repro.offload.policies.OffloadPolicy` objects deciding per
  request) through one shared bottleneck under a fault plan.

Everything samples from caller-provided seeded streams, so network
storms replay identically in oracle and ``--live`` modes.
"""

from repro.netsim.congestion import AIMDConfig, AIMDController
from repro.netsim.faults import (
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
from repro.netsim.fleet import (
    DeviceStats,
    FleetDevice,
    FleetNetReport,
    run_fleet_net,
)
from repro.netsim.session import (
    CLOSED,
    CLOSING,
    ESTABLISHED,
    NEGOTIATING,
    LinkSession,
    SessionConfig,
)
from repro.netsim.shared import SharedLink
from repro.netsim.transport import LinkTransport, SessionTransfer, SessionTransport

__all__ = [
    "OUTAGE",
    "DEGRADE",
    "FLAP",
    "LinkFault",
    "LinkFaultPlan",
    "outage_window",
    "degradation_window",
    "flap_at",
    "link_storm",
    "CLOSED",
    "NEGOTIATING",
    "ESTABLISHED",
    "CLOSING",
    "SessionConfig",
    "LinkSession",
    "AIMDConfig",
    "AIMDController",
    "SharedLink",
    "SessionTransfer",
    "SessionTransport",
    "LinkTransport",
    "FleetDevice",
    "DeviceStats",
    "FleetNetReport",
    "run_fleet_net",
]
