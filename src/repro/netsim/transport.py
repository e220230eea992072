"""Transports: session-riding transfers on a shared link, or a private radio.

This is where the three netsim pieces meet the data path.  A
:class:`SessionTransport` owns one device's
:class:`~repro.netsim.session.LinkSession` and
:class:`~repro.netsim.congestion.AIMDController` and moves payloads
over a :class:`~repro.netsim.shared.SharedLink` in self-clocked
*flights*: up to ``cwnd`` MTU-sized segments reserve the shared
serializer, the ack returns one RTT after the flight ends, and the next
flight launches on the ack — so uplink throughput is
``≈ cwnd·mtu/rtt``, an *emergent* quantity that grows additively while
the link is clean and halves on loss, rather than a preset.

Both transports are **stepwise**, so the device loop of
:mod:`repro.netsim.fleet` interleaves many devices on the virtual clock
and drives either kind the same way: :meth:`start` arms a transfer,
then each :meth:`advance` returns ``("wait", t_next)`` until it returns
``("done", delivered_s)`` with ``result`` populated.  A session's
advance performs at most one handshake or one flight; a private
radio's transfer is closed-form, so its first advance finishes it.
:meth:`send` is the synchronous convenience loop.

Loss discipline (the invariant the chaos harness asserts): segment loss
is sampled **only while** the bytes already sent plus the flight in the
air stay within ``(max_attempts - 1) × n_bytes``; past that budget
flights are deemed delivered (the same "transfers always deliver within
budget" discipline as :meth:`repro.hw.network.NetworkLink.transfer`),
which makes retransmit amplification *hard-bounded* by
``max_attempts`` — no pathological storm can exceed it.  A carrier drop
(flap or outage onset) inside a flight's window presumes the whole
flight lost, throws the session back to CLOSED, and the transfer
resumes after renegotiation — under whatever MTU the new conf-ack
lands, so mid-flight renegotiation genuinely re-segments the payload.

:class:`LinkTransport` puts a :class:`~repro.hw.network.NetworkLink`'s
private radio behind the same calls: no session, no window, and
whole-payload retries sampled by the link's ``transfer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from repro.hw.network import NetworkLink
from repro.netsim.congestion import AIMDConfig, AIMDController
from repro.netsim.session import ESTABLISHED, LinkSession
from repro.netsim.shared import SharedLink
from repro.utils.rng import as_generator

__all__ = ["LinkTransport", "SessionTransfer", "SessionTransport"]


@dataclass(frozen=True)
class SessionTransfer:
    """Outcome of one uplink transfer over either transport.

    ``sent_bytes`` counts every byte that occupied the serializer
    (originals + retransmits); :attr:`amplification` is its ratio to
    the payload — hard-bounded by the transport's ``max_attempts``.
    ``handshakes`` counts session (re)establishments the transfer paid
    for, ``flap_resumes`` how many of those were forced by carrier
    drops mid-flight.  ``delivered_s`` is when the last segment reaches
    the far side; ``ack_s`` when the sender learns of it — on a
    :class:`LinkTransport`, when the private radio frees.  ``release_s``
    is when the sending device may hand over its next payload: the ack
    on a session, which carries one transfer at a time, and the
    hand-over instant on a private radio, which queues payloads FIFO.
    """

    n_bytes: int
    n_segments: int
    sent_bytes: int
    retx_bytes: int
    retx_segments: int
    flights: int
    timeouts: int
    handshakes: int
    flap_resumes: int
    start_s: float
    delivered_s: float
    ack_s: float
    tx_s: float
    release_s: float

    @property
    def amplification(self) -> float:
        """Bytes on the wire per payload byte (1.0 = no retransmits)."""
        return self.sent_bytes / self.n_bytes if self.n_bytes else 1.0


class SessionTransport:
    """One device's stateful uplink onto a :class:`SharedLink`.

    Owns the session FSM, the AIMD window, and the in-flight transfer
    state.  It carries one transfer at a time (:meth:`start` raises
    while one is in flight), so a transfer's ``release_s`` is its ack:
    the sending device waits for it.  All sampling (segment loss,
    handshake loss, jitter) draws from the caller-provided stream, so
    storms replay identically in oracle and ``--live`` modes.  ``obs``
    (optional) is a :class:`~repro.obs.observer.Observer`-like object
    receiving ``EV_SESSION``/``EV_CWND`` instants.
    """

    def __init__(
        self,
        link: SharedLink,
        rng=None,
        aimd: AIMDConfig | None = None,
        max_attempts: int = 8,
        obs=None,
        device_id: int = -1,
    ) -> None:
        if not (isinstance(max_attempts, Integral) and max_attempts >= 1):
            raise ValueError(f"max_attempts must be an integer >= 1, got {max_attempts}")
        if not isinstance(device_id, Integral):
            raise ValueError(f"device_id must be an integer, got {device_id}")
        self.link = link
        self.rng = as_generator(rng)
        self.session = LinkSession(link, rng=self.rng)
        self.aimd = AIMDController(aimd)
        self.max_attempts = max_attempts
        self.obs = obs
        self.device_id = device_id
        self.n_transfers = 0
        self.n_flap_resumes = 0
        self._active = False
        # Carrier watermark: the last instant the link was known alive.
        # Flaps/outage onsets between transfers still kill the session —
        # the next advance() notices and pays a fresh handshake.
        self._seen_s = 0.0
        self.result: SessionTransfer | None = None

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _event(self, kind_name: str, time_s: float, req: int = -1) -> None:
        if self.obs is None:
            return
        from repro.obs.spans import EV_CWND, EV_SESSION

        kind = EV_SESSION if kind_name == "session" else EV_CWND
        self.obs.on_event(kind, time_s, self.device_id, req)

    # ------------------------------------------------------------------ #
    # stepwise transfer engine
    # ------------------------------------------------------------------ #
    def start(self, n_bytes: int, time_s: float) -> None:
        """Arm a transfer; drive it with :meth:`advance`."""
        if self._active:
            raise RuntimeError("a transfer is already in flight on this transport")
        if n_bytes <= 0:
            raise ValueError(f"n_bytes must be positive, got {n_bytes}")
        self._active = True
        self.result = None
        self._n_bytes = int(n_bytes)
        self._remaining = int(n_bytes)
        self._sent = 0
        self._retx = 0
        self._retx_seg = 0
        self._flights = 0
        self._timeouts = 0
        self._handshakes = 0
        self._flap_resumes = 0
        self._tx = 0.0
        self._start_s = float(time_s)
        self._checked_s = float(time_s)

    def advance(self, now: float) -> tuple[str, float]:
        """Perform one handshake or one flight from ``now``.

        Returns ``("wait", t_next)`` — call again at ``t_next`` — or
        ``("done", delivered_s)`` with :attr:`result` populated.
        """
        if not self._active:
            raise RuntimeError("no transfer armed; call start() first")
        if self.session.state == ESTABLISHED and self.link.carrier_drop_in(
            self._seen_s, now
        ):
            # The carrier flapped while the session sat idle: it is dead
            # on arrival, and the transfer below pays a renegotiation.
            self.session.carrier_lost(now)
            self._event("session", now)
        self._seen_s = max(self._seen_s, now)
        if self.session.state != ESTABLISHED:
            t0 = self.link.available_at(now)
            established = self.session.open(t0)
            self._handshakes += 1
            self._checked_s = established
            self._seen_s = max(self._seen_s, established)
            self._event("session", established)
            if established > now:
                return ("wait", established)
            now = established
        return self._flight(now)

    def _flight(self, now: float) -> tuple[str, float]:
        link, aimd = self.link, self.aimd
        mtu = self.session.config.mtu_bytes
        remaining_seg = max(1, math.ceil(self._remaining / mtu))
        flight_seg = min(aimd.window, remaining_seg)
        flight_bytes = min(flight_seg * mtu, self._remaining)
        start, end = link.reserve(flight_bytes, now, "up")
        ack_t = end + link.rtt_s
        self._flights += 1
        self._sent += flight_bytes
        self._tx += end - start
        # Hard amplification bound: past the budget, flights are deemed
        # delivered (link-layer assumed reliable), so sent_bytes can
        # never exceed max_attempts * n_bytes.
        may_lose = self._sent <= (self.max_attempts - 1) * self._n_bytes
        if may_lose and link.carrier_drop_in(self._checked_s, ack_t):
            # The flight is presumed lost and the session dropped with
            # it: renegotiate, then resume under the new MTU.
            self._retx += flight_bytes
            self._retx_seg += flight_seg
            self._checked_s = ack_t
            self._seen_s = max(self._seen_s, ack_t)
            self.session.carrier_lost(ack_t)
            self.n_flap_resumes += 1
            self._flap_resumes += 1
            self._event("session", ack_t)
            return ("wait", ack_t)
        self._checked_s = ack_t
        self._seen_s = max(self._seen_s, ack_t)
        lost = 0
        if may_lose:
            p = link.loss_at(start)
            if p > 0.0:
                lost = int(self.rng.binomial(flight_seg, p))
        if lost >= flight_seg:
            # Whole flight vanished: retransmission timeout, window to 1.
            self._retx += flight_bytes
            self._retx_seg += flight_seg
            self._timeouts += 1
            aimd.on_timeout()
            self._event("cwnd", end)
            return ("wait", end + aimd.rto_s(link.rtt_s))
        delivered = flight_seg - lost
        if lost > 0:
            self._retx += lost * mtu
            self._retx_seg += lost
            aimd.on_loss()
            self._event("cwnd", ack_t)
        else:
            aimd.on_ack(delivered)
        self._remaining = max(0, self._remaining - delivered * mtu)
        if self._remaining > 0:
            return ("wait", ack_t)
        delivered_s = end + link.rtt_s / 2.0
        if link.jitter_s > 0.0:
            delivered_s += float(self.rng.exponential(link.jitter_s))
        self._finish(delivered_s, delivered_s + link.rtt_s / 2.0, mtu)
        return ("done", delivered_s)

    def _finish(self, delivered_s: float, ack_s: float, mtu: int) -> None:
        self.result = SessionTransfer(
            n_bytes=self._n_bytes,
            n_segments=math.ceil(self._n_bytes / mtu),
            sent_bytes=self._sent,
            retx_bytes=self._retx,
            retx_segments=self._retx_seg,
            flights=self._flights,
            timeouts=self._timeouts,
            handshakes=self._handshakes,
            flap_resumes=self._flap_resumes,
            start_s=self._start_s,
            delivered_s=delivered_s,
            ack_s=ack_s,
            tx_s=self._tx,
            release_s=ack_s,
        )
        self._active = False
        self.n_transfers += 1

    def send(self, n_bytes: int, time_s: float) -> SessionTransfer:
        """Synchronous transfer: loop :meth:`advance` to completion."""
        self.start(n_bytes, time_s)
        now = time_s
        while True:
            status, t_next = self.advance(now)
            if status == "done":
                return self.result
            now = t_next

    def send_down(self, n_bytes: int, time_s: float) -> tuple[float, float, int]:
        """Deliver a cloud→edge payload: ``(start_s, arrival_s, retransmits)``.

        The downlink is the fat direction in every preset, so it stays
        a plain serializer reservation (congestion control models the
        contended *uplink*): one reservation, starting after any outage,
        plus half an RTT and sampled jitter, with no retransmits.
        """
        start, end = self.link.reserve(n_bytes, time_s, "down")
        arrival = end + self.link.rtt_s / 2.0
        if self.link.jitter_s > 0.0:
            arrival += float(self.rng.exponential(self.link.jitter_s))
        return start, arrival, 0

    # ------------------------------------------------------------------ #
    # deterministic planning estimate
    # ------------------------------------------------------------------ #
    def estimate_s(self, n_bytes: int, time_s: float) -> float:
        """Expected uplink delivery time from ``time_s`` (no sampling).

        The honest congestion signal for :class:`DeadlineAware`: the
        serializer backlog, any outage deferral, handshake rounds if
        the session is down, loss-inflated serialization at the current
        degradation scale, one RTT per flight at the *current* AIMD
        window, and the mean jitter.  Everything is read from live
        state, so the estimate collapses exactly when the link does.
        """
        link = self.link
        t0 = link.available_at(max(time_s, link.free_at("up")))
        est = t0 - time_s
        if self.session.state != ESTABLISHED:
            rounds = 2 if self.session.negotiate(t0) != self.session.wanted else 1
            est += rounds * link.rtt_s
            mtu = self.session.negotiate(t0).mtu_bytes
        else:
            mtu = self.session.config.mtu_bytes
        p = link.loss_at(t0)
        n_seg = max(1, math.ceil(n_bytes / mtu))
        n_flights = math.ceil(n_seg / self.aimd.window)
        est += link.serialization_s(n_bytes, t0, "up") / (1.0 - p)
        est += n_flights * link.rtt_s
        est += link.rtt_s / 2.0 + link.jitter_s
        return est

    def estimate_down_s(self, n_bytes: int, time_s: float) -> float:
        """Expected downlink delivery time from ``time_s`` (no sampling)."""
        link = self.link
        t0 = link.available_at(max(time_s, link.free_at("down")))
        return (
            (t0 - time_s)
            + link.serialization_s(n_bytes, t0, "down")
            + link.rtt_s / 2.0
            + link.jitter_s
        )


class LinkTransport:
    """A :class:`~repro.hw.network.NetworkLink`'s private radio.

    The degenerate transport: one FIFO horizon per direction, and
    retries and jitter sampled by
    :meth:`~repro.hw.network.NetworkLink.transfer` from ``rng``.
    Estimates are the link's planning view plus the wait.
    The radio queues payloads, so it takes the next one at once: a
    transfer's ``release_s`` is its hand-over instant.
    """

    def __init__(self, link: NetworkLink, rng=None) -> None:
        self.link = link
        self.rng = as_generator(rng)
        self.up_free_s = 0.0
        self.down_free_s = 0.0
        self.result: SessionTransfer | None = None

    def start(self, n_bytes: int, time_s: float) -> None:
        """Hand one payload to the radio at ``time_s``; :meth:`advance` sends it."""
        self._handed = (int(n_bytes), float(time_s))

    def advance(self, now: float) -> tuple[str, float]:
        """Send the handed-over payload: one segment sent ``attempts`` times.

        The transfer is closed-form, so this one step finishes it and
        returns ``("done", delivered_s)``.  ``start_s`` is the first
        on-air instant, ``ack_s`` when the radio frees, ``delivered_s``
        that plus propagation and jitter.
        """
        n_bytes, handed_s = self._handed
        link = self.link
        start = max(handed_s, self.up_free_s)
        transfer = link.transfer(n_bytes, time_s=start, rng=self.rng)
        self.up_free_s = start + transfer.occupancy_s
        retries = transfer.attempts - 1
        self.result = SessionTransfer(
            n_bytes=n_bytes,
            n_segments=1,
            sent_bytes=transfer.attempts * n_bytes,
            retx_bytes=retries * n_bytes,
            retx_segments=retries,
            flights=transfer.attempts,
            timeouts=retries,
            handshakes=0,
            flap_resumes=0,
            start_s=start,
            delivered_s=self.up_free_s + transfer.propagation_s,
            ack_s=self.up_free_s,
            tx_s=transfer.tx_s,
            release_s=handed_s,
        )
        return ("done", self.result.delivered_s)

    def send(self, n_bytes: int, time_s: float) -> SessionTransfer:
        """Synchronous transfer: :meth:`start` plus its one :meth:`advance`."""
        self.start(n_bytes, time_s)
        self.advance(time_s)
        return self.result

    def send_down(self, n_bytes: int, time_s: float) -> tuple[float, float, int]:
        """Deliver a cloud→edge payload: ``(start_s, arrival_s, retransmits)``."""
        link = self.link
        start = max(time_s, self.down_free_s)
        transfer = link.transfer(n_bytes, time_s=start, rng=self.rng, direction="down")
        self.down_free_s = start + transfer.occupancy_s
        return start, self.down_free_s + transfer.propagation_s, transfer.attempts - 1

    def estimate_s(self, n_bytes: int, time_s: float) -> float:
        """Expected uplink delivery time from ``time_s``, waiting as :meth:`send` would."""
        wait = max(time_s, self.up_free_s) - time_s
        return wait + self.link.expected_one_way_s(n_bytes, time_s=time_s)

    def estimate_down_s(self, n_bytes: int, time_s: float) -> float:
        """Expected downlink delivery time from ``time_s`` (no sampling)."""
        return self.link.expected_one_way_s(n_bytes, time_s=time_s, direction="down")
