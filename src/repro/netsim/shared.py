"""Shared links: many edge devices multiplexed over one cell/backhaul.

:class:`~repro.hw.network.NetworkLink` is private to a single edge
radio.  A :class:`SharedLink` is the *tower side*: one serializer per
direction that every attached device's transport reserves flights on,
first-come-first-served on the virtual clock.  Contention is therefore
emergent — nothing allocates "fair shares"; devices interleave flights
because each one's RTT gap leaves the serializer free for the others,
and AIMD windows converge toward the classic per-flow fair share on
their own (asserted in the netsim tests).

The shared link also owns the network's *state over time*: an optional
:class:`~repro.netsim.faults.LinkFaultPlan` of seeded outage, degrade
and flap windows.  Sessions ask it for
the current MTU cap and codec set during conf-req/conf-nak negotiation;
transports ask it for loss, scale, and carrier drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hw.network import NetworkLink
from repro.netsim.faults import LinkFaultPlan

__all__ = ["SharedLink"]


@dataclass
class SharedLink:
    """One contended edge↔cloud bottleneck shared by a device fleet.

    Mutable on purpose: ``up_free_s``/``down_free_s`` are the
    serializer horizons that advance as transports reserve flights —
    the single piece of shared state that makes devices contend.
    Everything else mirrors :class:`~repro.hw.network.NetworkLink`
    (nominal bandwidths, RTT, jitter, loss, radio power) plus the
    negotiation surface (``max_mtu``, ``codecs``) and an optional
    seeded ``faults`` plan.
    """

    name: str
    uplink_mbps: float
    downlink_mbps: float
    rtt_s: float
    jitter_s: float = 0.0
    loss_rate: float = 0.0
    tx_power_w: float = 0.0
    max_mtu_bytes: int = 1500
    codecs: tuple[str, ...] = ("float32", "float16", "uint8", "kmeans8")
    faults: LinkFaultPlan = field(default_factory=LinkFaultPlan)
    up_free_s: float = field(default=0.0, init=False)
    down_free_s: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not (0 < self.uplink_mbps < math.inf and 0 < self.downlink_mbps < math.inf):
            raise ValueError(
                f"{self.name}: bandwidth must be positive and finite "
                f"(got up={self.uplink_mbps}, down={self.downlink_mbps} Mbps)"
            )
        if not all(0 <= v < math.inf for v in (self.rtt_s, self.jitter_s, self.tx_power_w)):
            raise ValueError(f"{self.name}: rtt/jitter/tx_power must be finite and non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"{self.name}: loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if not 64 <= self.max_mtu_bytes < math.inf:
            raise ValueError(
                f"{self.name}: max_mtu_bytes must be >= 64 and finite, got {self.max_mtu_bytes}"
            )
        if not self.codecs:
            raise ValueError(f"{self.name}: codecs must be non-empty")

    @classmethod
    def from_network_link(
        cls,
        link: NetworkLink,
        faults: LinkFaultPlan | None = None,
        max_mtu_bytes: int = 1500,
        codecs: tuple[str, ...] = ("float32", "float16", "uint8", "kmeans8"),
    ) -> "SharedLink":
        """Lift a single-radio preset (e.g. ``lte()``) into a shared tower.

        A shared link's bandwidth changes only through its fault plan,
        so a link that carries a degradation trace is refused rather
        than lifted without it.
        """
        if link.degradation is not None:
            raise ValueError(
                f"{link.name}: a shared link takes no degradation trace; "
                "declare degrade windows in its LinkFaultPlan instead"
            )
        return cls(
            name=link.name,
            uplink_mbps=link.uplink_mbps,
            downlink_mbps=link.downlink_mbps,
            rtt_s=link.rtt_s,
            jitter_s=link.jitter_s,
            loss_rate=link.loss_rate,
            tx_power_w=link.tx_power_w,
            max_mtu_bytes=max_mtu_bytes,
            codecs=codecs,
            faults=faults or LinkFaultPlan(),
        )

    # ------------------------------------------------------------------ #
    # link state over time
    # ------------------------------------------------------------------ #
    def available_at(self, time_s: float) -> float:
        """Earliest instant >= ``time_s`` outside every outage window."""
        return self.faults.available_at(time_s)

    def scale_at(self, time_s: float) -> float:
        """Bandwidth multiplier at ``time_s`` (the fault plan's degrade)."""
        return self.faults.bandwidth_scale_at(time_s)

    def loss_at(self, time_s: float) -> float:
        """Per-segment loss probability at ``time_s`` (base + degrade)."""
        return min(0.999, self.loss_rate + self.faults.loss_add_at(time_s))

    def carrier_drop_in(self, t0: float, t1: float) -> bool:
        """Whether sessions lose carrier anywhere in ``(t0, t1]``."""
        return self.faults.carrier_drop_in(t0, t1)

    def mtu_cap_at(self, time_s: float) -> int:
        """Largest MTU the tower conf-acks at ``time_s``.

        A heavily degraded link (scale below one half) advertises half
        the nominal MTU — smaller frames survive bad radio conditions
        better — which is what makes a mid-storm renegotiation visibly
        change a transfer's segmentation.
        """
        if self.scale_at(time_s) < 0.5:
            return max(64, self.max_mtu_bytes // 2)
        return self.max_mtu_bytes

    # ------------------------------------------------------------------ #
    # the contended serializer
    # ------------------------------------------------------------------ #
    def serialization_s(
        self, n_bytes: int, time_s: float = 0.0, direction: str = "up"
    ) -> float:
        """Seconds ``n_bytes`` occupies the serializer at ``time_s``."""
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        mbps = self.uplink_mbps if direction == "up" else self.downlink_mbps
        return 8.0 * n_bytes / (mbps * 1e6 * self.scale_at(time_s))

    def free_at(self, direction: str = "up") -> float:
        """When the serializer for ``direction`` next goes idle."""
        return self.up_free_s if direction == "up" else self.down_free_s

    def backlog_s(self, time_s: float, direction: str = "up") -> float:
        """How long a flight arriving at ``time_s`` waits for the serializer."""
        return max(0.0, self.free_at(direction) - time_s)

    def reserve(
        self, n_bytes: int, time_s: float, direction: str = "up"
    ) -> tuple[float, float]:
        """Claim the serializer for ``n_bytes``; return ``(start, end)``.

        The flight starts at the latest of the request time, the
        serializer's free horizon, and the end of any outage — then the
        horizon advances to its end.  This single scalar per direction
        is the whole contention model: whichever transport reserves
        first transmits first.
        """
        start = self.available_at(max(time_s, self.free_at(direction)))
        end = start + self.serialization_s(n_bytes, start, direction)
        if direction == "up":
            self.up_free_s = end
        else:
            self.down_free_s = end
        return start, end
