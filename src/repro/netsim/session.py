"""Connection sessions: PPP/LCP-flavoured handshake and teardown FSM.

Every offload transfer rides an explicit session.  A
:class:`LinkSession` walks the classic point-to-point state machine —

    CLOSED → NEGOTIATING → ESTABLISHED → CLOSING → CLOSED

with conf-req / conf-ack / conf-nak option negotiation, as in PPP's
LCP/IPCP: the edge sends a conf-req carrying its wanted options (MTU,
payload codec), and the peer either conf-acks them (one RTT) or
conf-naks with the values it *can* accept (the edge re-requests with
the nak'd values — one extra RTT).  Control packets ride the same lossy
link as data, so a lost conf-req pays a backed-off timeout and a
retransmission, bounded by ``max_config_attempts``; past the budget the
session assumes the link-layer delivered (mirroring the data path's
"transfers always deliver within budget" discipline).

A carrier drop — link flap or outage onset from the
:class:`~repro.netsim.faults.LinkFaultPlan` — throws an ESTABLISHED
session straight back to CLOSED (no CLOSING exchange: there is nobody
to talk to), clearing the negotiated options; the transport re-opens it
and the transfer resumes under whatever MTU the *new* negotiation
lands, which is how mid-flight renegotiation becomes visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.rng import as_generator

__all__ = ["CLOSED", "NEGOTIATING", "ESTABLISHED", "CLOSING", "SessionConfig", "LinkSession"]

CLOSED = "closed"
NEGOTIATING = "negotiating"
ESTABLISHED = "established"
CLOSING = "closing"


@dataclass(frozen=True)
class SessionConfig:
    """Negotiable session options: wire MTU and payload codec."""

    mtu_bytes: int = 1500
    codec: str = "float32"

    def __post_init__(self) -> None:
        if not 64 <= self.mtu_bytes < math.inf:  # false for NaN too
            raise ValueError(f"mtu_bytes must be >= 64 and finite, got {self.mtu_bytes}")


class LinkSession:
    """One endpoint's connection FSM over a shared link.

    ``link`` must expose ``rtt_s``, ``loss_at(t)``, ``mtu_cap_at(t)``
    and ``codecs`` (the peer's acceptable set) —
    :class:`~repro.netsim.shared.SharedLink` does.  ``wanted`` is the
    conf-req the edge opens with; :attr:`config` holds what was actually
    conf-ack'd (``None`` unless ESTABLISHED).  All sampling draws from
    the caller-provided stream, so handshakes replay identically in
    oracle and ``--live`` modes.
    """

    def __init__(
        self,
        link,
        wanted: SessionConfig | None = None,
        rng=None,
        max_config_attempts: int = 5,
    ) -> None:
        if max_config_attempts < 1:
            raise ValueError(
                f"max_config_attempts must be >= 1, got {max_config_attempts}"
            )
        self.link = link
        self.wanted = wanted or SessionConfig()
        self.rng = as_generator(rng)
        self.max_config_attempts = max_config_attempts
        self.state = CLOSED
        self.config: SessionConfig | None = None
        self.n_established = 0
        self.n_naks = 0
        self.n_handshake_retx = 0
        self.n_carrier_drops = 0
        self.n_closed = 0

    def _exchange_s(self, time_s: float) -> float:
        """One request/reply control round, with lossy retransmits.

        Each attempt costs one RTT; a lost control packet (either
        direction) pays an additional backed-off timeout before the
        retransmit.  Returns the elapsed time for the round.
        """
        rtt = self.link.rtt_s
        elapsed = 0.0
        for attempt in range(self.max_config_attempts):
            p = self.link.loss_at(time_s + elapsed)
            # A round survives only if both control packets do.
            lost = self.rng.random() < 1.0 - (1.0 - p) ** 2
            if not lost or attempt == self.max_config_attempts - 1:
                elapsed += rtt
                return elapsed
            self.n_handshake_retx += 1
            elapsed += rtt * (2.0**attempt)  # backed-off control RTO
        return elapsed  # pragma: no cover — loop always returns

    def negotiate(self, time_s: float) -> SessionConfig:
        """What the peer would conf-ack at ``time_s`` (no time advances).

        MTU is nak'd down to the link's current cap — a degraded link
        advertises a smaller MTU, so a session renegotiated mid-storm
        genuinely changes segmentation — and an unsupported codec is
        nak'd to the peer's first supported one.
        """
        mtu = min(self.wanted.mtu_bytes, self.link.mtu_cap_at(time_s))
        codec = self.wanted.codec
        if codec not in self.link.codecs:
            codec = self.link.codecs[0]
        return SessionConfig(mtu_bytes=mtu, codec=codec)

    def open(self, time_s: float) -> float:
        """Run the handshake; return the instant the session ESTABLISHES.

        conf-req/conf-ack is one control round; if the peer must nak
        (MTU above its cap, codec unsupported) the corrected conf-req
        costs a second round.  Idempotent when already ESTABLISHED.
        """
        if self.state == ESTABLISHED:
            return time_s
        self.state = NEGOTIATING
        elapsed = self._exchange_s(time_s)
        granted = self.negotiate(time_s)
        if granted != self.wanted:
            self.n_naks += 1
            elapsed += self._exchange_s(time_s + elapsed)
            granted = self.negotiate(time_s + elapsed)
        self.config = granted
        self.state = ESTABLISHED
        self.n_established += 1
        return time_s + elapsed

    def close(self, time_s: float) -> float:
        """Orderly teardown (term-req/term-ack); return the CLOSED instant."""
        if self.state == CLOSED:
            return time_s
        self.state = CLOSING
        elapsed = self._exchange_s(time_s)
        self.state = CLOSED
        self.config = None
        self.n_closed += 1
        return time_s + elapsed

    def carrier_lost(self, time_s: float) -> None:
        """Hard drop: flap/outage killed the carrier, no teardown exchange."""
        if self.state != CLOSED:
            self.n_carrier_drops += 1
        self.state = CLOSED
        self.config = None
