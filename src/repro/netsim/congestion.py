"""AIMD congestion control: throughput that emerges from loss.

The old :class:`~repro.hw.network.NetworkLink` serializer treated
bandwidth as a preset — loss only multiplied the transfer time.  Real
uplinks self-clock: TCP probes for capacity with slow start, adds one
segment per RTT once past ``ssthresh`` (additive increase), halves its
window on loss (multiplicative decrease), and collapses to one segment
on a retransmission timeout.  :class:`AIMDController` is exactly that
state machine, deliberately minimal — no SACK, no fast recovery — so
the classic AIMD fixed point (per-flow goodput ≈ ``cwnd·mss/rtt``
converging to a fair share on a shared bottleneck) is legible in tests.

The controller is pure window arithmetic on the virtual clock; the
flight pacing, loss sampling, and RTO waits live in
:class:`~repro.netsim.transport.SessionTransport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AIMDConfig", "AIMDController"]


#: Window dynamics: the slow-start threshold a flow starts with, the
#: additive-increase step per window's worth of acks, the
#: multiplicative decrease on loss, the window's floor and cap, and the
#: exponential backoff base for consecutive timeouts.
_INIT_SSTHRESH = 32
_AI_SEGMENTS = 1.0
_MD_FACTOR = 0.5
_MIN_CWND = 1
_MAX_CWND = 256
_RTO_MULT = 2.0


@dataclass(frozen=True)
class AIMDConfig:
    """The slow-start entry point of an :class:`AIMDController`.

    ``init_cwnd`` is the window, in segments, a flow starts with; slow
    start then doubles it per RTT up to a threshold of 32 segments, and
    the window stays within [1, 256].
    """

    init_cwnd: int = 1

    def __post_init__(self) -> None:
        # Negated comparison, so NaN fails it too.
        if not 1 <= self.init_cwnd < math.inf:
            raise ValueError(f"init_cwnd must be >= 1 and finite, got {self.init_cwnd}")


class AIMDController:
    """TCP-flavoured congestion window: slow start, AI, MD, RTO backoff.

    ``cwnd`` is a float internally (additive increase accumulates
    fractional segments); :attr:`window` rounds down to the whole
    segments a flight may carry.  Counters (``n_md``, ``n_timeouts``,
    ``n_slow_starts``) feed the observability layer.
    """

    def __init__(self, config: AIMDConfig | None = None) -> None:
        self.config = config or AIMDConfig()
        self.cwnd = float(self.config.init_cwnd)
        self.ssthresh = float(_INIT_SSTHRESH)
        self.consecutive_timeouts = 0
        self.n_md = 0
        self.n_timeouts = 0
        self.n_slow_starts = 1

    @property
    def window(self) -> int:
        """Whole segments the next flight may carry."""
        return max(_MIN_CWND, int(self.cwnd))

    @property
    def in_slow_start(self) -> bool:
        """Whether the window is still doubling per RTT."""
        return self.cwnd < self.ssthresh

    def on_ack(self, n_acked: int) -> None:
        """Grow the window for ``n_acked`` delivered segments.

        Slow start adds one segment per ack (window doubles per RTT);
        congestion avoidance adds ``n/cwnd`` (one segment per window's
        worth of acks).  A clean flight also resets the RTO backoff.
        """
        if n_acked <= 0:
            return
        if self.in_slow_start:
            self.cwnd = min(float(_MAX_CWND), self.cwnd + float(n_acked))
        else:
            self.cwnd = min(
                float(_MAX_CWND),
                self.cwnd + _AI_SEGMENTS * n_acked / max(self.cwnd, 1.0),
            )
        self.consecutive_timeouts = 0

    def on_loss(self) -> None:
        """Multiplicative decrease: some (not all) of a flight was lost."""
        self.ssthresh = max(float(_MIN_CWND), self.cwnd * _MD_FACTOR)
        self.cwnd = self.ssthresh
        self.n_md += 1
        self.consecutive_timeouts = 0

    def on_timeout(self) -> None:
        """Retransmission timeout: an entire flight vanished.

        The window collapses to one segment and re-enters slow start;
        consecutive timeouts drive :meth:`rto_s` exponentially, the
        classic backoff that keeps a dead link from being hammered.
        """
        self.ssthresh = max(float(_MIN_CWND), self.cwnd * _MD_FACTOR)
        self.cwnd = float(_MIN_CWND)
        self.n_timeouts += 1
        self.n_slow_starts += 1
        self.consecutive_timeouts += 1

    def rto_s(self, base_rtt_s: float) -> float:
        """Current retransmission timeout, exponentially backed off."""
        return base_rtt_s * _RTO_MULT ** (1 + self.consecutive_timeouts)
