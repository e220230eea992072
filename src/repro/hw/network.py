"""Edge↔cloud network links for partitioned (offloaded) inference.

The paper measures *on-device* inference; the offloading extension
(:mod:`repro.offload`) splits a model between a weak edge device and a
cloud replica, which makes the network a first-class hardware resource
next to :class:`~repro.hw.device.DeviceProfile`.  A
:class:`NetworkLink` models the four effects that decide whether a
split is worth it:

* **serialization** — payload bytes against the link's uplink/downlink
  bandwidth.  This is the *occupying* part of a transfer: a single edge
  radio transmits one payload at a time, so the offload engine queues
  transfers on it exactly like compute queues on a device;
* **propagation** — half the round-trip time per direction, paid once
  per delivered payload and overlapping with other transfers;
* **jitter** — an exponential tail on top of propagation (seeded, so
  runs stay deterministic);
* **loss/retry** — each attempt fails with ``loss_rate``; a failed
  attempt occupies the link for its serialization time plus a one-RTT
  retransmit timeout before the next try, under a budget of eight
  attempts.

Bandwidth can additionally degrade over (virtual) time via a
trace-driven step function (:class:`BandwidthTrace`) — the "walking
from wifi into the parking garage" scenario.

Presets (:func:`ethernet`, :func:`wifi`, :func:`lte`) are calibrated to
typical last-hop numbers; :func:`network_links` returns all three keyed
by name, mirroring :func:`repro.hw.devices.device_profiles`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BandwidthTrace",
    "NetworkLink",
    "Transfer",
    "ethernet",
    "wifi",
    "lte",
    "network_links",
]

_MAX_ATTEMPTS = 8  # retransmit budget: transfers always deliver


@dataclass(frozen=True)
class BandwidthTrace:
    """Trace-driven bandwidth degradation: a step function of scales.

    ``times_s``/``scales`` describe piecewise-constant multipliers on
    the link's nominal bandwidth: the scale at time ``t`` is the entry
    of the *latest* step at or before ``t`` (1.0 before the first
    step).  Step times must be finite and scales positive and finite —
    a dead link is modelled as a very small scale, not zero, so
    transfers stay finite and the engine can still drain.
    """

    times_s: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times_s) != len(self.scales):
            raise ValueError(
                f"{len(self.times_s)} step times vs {len(self.scales)} scales"
            )
        if not self.times_s:
            raise ValueError("a bandwidth trace needs at least one step")
        if not all(math.isfinite(t) for t in self.times_s):
            raise ValueError(f"times_s must be finite, got {self.times_s}")
        if any(np.diff(self.times_s) < 0):
            raise ValueError("step times must be non-decreasing")
        if not all(0 < s < math.inf for s in self.scales):  # false for NaN too
            raise ValueError(f"scales must be positive and finite, got {self.scales}")

    def scale_at(self, time_s: float) -> float:
        """Bandwidth multiplier in effect at ``time_s`` (1.0 before the trace)."""
        idx = bisect_right(self.times_s, time_s) - 1
        return 1.0 if idx < 0 else float(self.scales[idx])


@dataclass(frozen=True)
class Transfer:
    """Outcome of one (seeded) payload transfer over a link.

    ``occupancy_s`` is how long the transfer held the link exclusively
    (all serialization attempts plus retransmit timeouts); ``tx_s`` is
    the radio-active part of that — serialization attempts only, the
    basis for transmit-energy accounting; ``total_s`` additionally
    includes the final propagation + jitter, which overlaps with the
    next payload's serialization.
    """

    n_bytes: int
    attempts: int
    occupancy_s: float
    propagation_s: float
    tx_s: float

    @property
    def total_s(self) -> float:
        return self.occupancy_s + self.propagation_s


@dataclass(frozen=True)
class NetworkLink:
    """One edge↔cloud network path (bandwidth, RTT, jitter, loss, power).

    Attributes
    ----------
    name:
        Preset name (``"wifi"``, ``"lte"``, ``"ethernet"``, ...).
    uplink_mbps, downlink_mbps:
        Nominal serialization bandwidth per direction, megabits/s.
    rtt_s:
        Base round-trip time; each direction pays half per delivery and
        a full RTT per retransmit timeout.
    jitter_s:
        Mean of the exponential jitter added to each propagation leg
        (0 disables; sampling needs an ``rng``).
    loss_rate:
        Per-attempt probability a payload must be retransmitted
        (at most eight attempts, so transfers always deliver).
    tx_power_w:
        Radio power while the edge transmits — feeds the offload
        engine's edge-energy accounting next to compute energy.
    degradation:
        Optional :class:`BandwidthTrace` scaling both directions over
        virtual time.
    """

    name: str
    uplink_mbps: float
    downlink_mbps: float
    rtt_s: float
    jitter_s: float = 0.0
    loss_rate: float = 0.0
    tx_power_w: float = 0.0
    degradation: BandwidthTrace | None = field(default=None)

    def __post_init__(self) -> None:
        if not (0 < self.uplink_mbps < math.inf and 0 < self.downlink_mbps < math.inf):
            raise ValueError(
                f"{self.name}: bandwidth must be positive and finite "
                f"(got up={self.uplink_mbps}, down={self.downlink_mbps} Mbps); "
                "model an outage with a small BandwidthTrace scale instead"
            )
        if not all(0 <= v < math.inf for v in (self.rtt_s, self.jitter_s, self.tx_power_w)):
            raise ValueError(f"{self.name}: rtt/jitter/tx_power must be finite and non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"{self.name}: loss_rate must be in [0, 1), got {self.loss_rate}")

    # ------------------------------------------------------------------ #
    # deterministic components
    # ------------------------------------------------------------------ #
    def bandwidth_scale(self, time_s: float) -> float:
        """Degradation multiplier in effect at ``time_s``."""
        return 1.0 if self.degradation is None else self.degradation.scale_at(time_s)

    def serialization_s(
        self, n_bytes: int, time_s: float = 0.0, direction: str = "up"
    ) -> float:
        """Seconds one serialization attempt occupies the link."""
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        mbps = self.uplink_mbps if direction == "up" else self.downlink_mbps
        return 8.0 * n_bytes / (mbps * 1e6 * self.bandwidth_scale(time_s))

    def expected_attempts(self) -> float:
        """Expected serialization attempts per delivery, budget included.

        The attempt count is ``min(G, 8)`` for geometric ``G`` (success
        rate ``1 - loss_rate``), so its mean is the *truncated* series
        ``(1 - p^8) / (1 - p)`` — not the unbounded ``1 / (1 - p)``.
        """
        p = self.loss_rate
        if p == 0.0:
            return 1.0
        return (1.0 - p**_MAX_ATTEMPTS) / (1.0 - p)

    def expected_timeout_s(self) -> float:
        """Expected total retransmit-timeout wait per delivery.

        Retry ``k`` happens iff the first ``k`` attempts all failed
        (probability ``p^k``) and the budget allows another, and waits
        one RTT — so the mean is the finite sum
        ``rtt * Σ_{k=1}^{7} p^k``, not the unbounded
        ``(1/(1-p) - 1) * rtt``.
        """
        p = self.loss_rate
        if p == 0.0:
            return 0.0
        return self.rtt_s * (p * (p ** (_MAX_ATTEMPTS - 1) - 1.0) / (p - 1.0))

    def expected_one_way_s(
        self, n_bytes: int, time_s: float = 0.0, direction: str = "up"
    ) -> float:
        """Deterministic planning estimate of one delivery (no sampling).

        Uses the budget-truncated expected attempt count, the expected
        retransmit-timeout wait, and the mean jitter — the same
        quantities :meth:`transfer` samples, so the partition planner
        and the deadline-aware policy reason about the link the sampler
        actually implements.
        """
        tx = self.serialization_s(n_bytes, time_s, direction)
        return (
            self.expected_attempts() * tx
            + self.expected_timeout_s()
            + self.rtt_s / 2.0
            + self.jitter_s
        )

    # ------------------------------------------------------------------ #
    # sampled transfers (seed-deterministic)
    # ------------------------------------------------------------------ #
    def transfer(
        self,
        n_bytes: int,
        time_s: float = 0.0,
        rng: np.random.Generator | None = None,
        direction: str = "up",
    ) -> Transfer:
        """Sample one delivery: retries then propagation + jitter.

        Without an ``rng`` the transfer is loss- and jitter-free (pure
        serialization + propagation) — handy for hand-computable tests.
        Identical generator state yields identical transfers.
        """
        tx = self.serialization_s(n_bytes, time_s, direction)
        attempts = 1
        if rng is not None and self.loss_rate > 0.0:
            while attempts < _MAX_ATTEMPTS and rng.random() < self.loss_rate:
                attempts += 1
        # Each failed attempt pays its serialization plus a one-RTT
        # retransmit timeout.
        timeouts = (attempts - 1) * self.rtt_s
        occupancy = attempts * tx + timeouts
        propagation = self.rtt_s / 2.0
        if rng is not None and self.jitter_s > 0.0:
            propagation += float(rng.exponential(self.jitter_s))
        return Transfer(
            n_bytes=int(n_bytes),
            attempts=attempts,
            occupancy_s=occupancy,
            propagation_s=propagation,
            tx_s=attempts * tx,
        )


def ethernet() -> NetworkLink:
    """Wired edge: gigabit LAN to an on-prem cloudlet."""
    return NetworkLink(
        name="ethernet",
        uplink_mbps=1000.0,
        downlink_mbps=1000.0,
        rtt_s=0.4e-3,
        jitter_s=0.05e-3,
        loss_rate=0.0,
        tx_power_w=0.2,
    )


def wifi() -> NetworkLink:
    """802.11ac last hop + metro backhaul to a nearby cloud region."""
    return NetworkLink(
        name="wifi",
        uplink_mbps=40.0,
        downlink_mbps=80.0,
        rtt_s=3e-3,
        jitter_s=1e-3,
        loss_rate=0.002,
        tx_power_w=0.8,
    )


def lte() -> NetworkLink:
    """Cellular uplink: modest bandwidth, long RTT, real loss."""
    return NetworkLink(
        name="lte",
        uplink_mbps=12.0,
        downlink_mbps=40.0,
        rtt_s=60e-3,
        jitter_s=10e-3,
        loss_rate=0.01,
        tx_power_w=1.2,
    )


def network_links() -> dict[str, NetworkLink]:
    """The three calibrated link presets, keyed by name.

    The mapping is rebuilt per call (links are cheap frozen dataclasses),
    so callers may filter or replace entries freely — mirroring
    :func:`repro.hw.devices.device_profiles`.
    """
    return {"ethernet": ethernet(), "wifi": wifi(), "lte": lte()}
