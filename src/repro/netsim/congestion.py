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


@dataclass(frozen=True)
class AIMDConfig:
    """Window-dynamics knobs for :class:`AIMDController`.

    ``init_cwnd``/``init_ssthresh`` set the slow-start entry point;
    ``ai_segments`` is the additive-increase step per window's worth of
    acks; ``md_factor`` the multiplicative decrease on loss;
    ``rto_mult`` the exponential backoff base for consecutive timeouts.
    """

    init_cwnd: int = 1
    init_ssthresh: int = 32
    ai_segments: float = 1.0
    md_factor: float = 0.5
    min_cwnd: int = 1
    max_cwnd: int = 256
    rto_mult: float = 2.0

    def __post_init__(self) -> None:
        # Negated comparisons, so NaN fails them too.
        if not 1 <= self.init_cwnd < math.inf:
            raise ValueError(f"init_cwnd must be >= 1 and finite, got {self.init_cwnd}")
        if not 1 <= self.init_ssthresh < math.inf:
            raise ValueError(
                f"init_ssthresh must be >= 1 and finite, got {self.init_ssthresh}"
            )
        if not 0 < self.ai_segments < math.inf:
            raise ValueError(
                f"ai_segments must be positive and finite, got {self.ai_segments}"
            )
        if not 0.0 < self.md_factor < 1.0:
            raise ValueError(f"md_factor must be in (0, 1), got {self.md_factor}")
        if not 1 <= self.min_cwnd < math.inf:
            raise ValueError(f"min_cwnd must be >= 1 and finite, got {self.min_cwnd}")
        if not self.min_cwnd <= self.max_cwnd < math.inf:
            raise ValueError(
                f"max_cwnd must be >= min_cwnd ({self.min_cwnd}) and finite, "
                f"got {self.max_cwnd}"
            )
        if not 1.0 <= self.rto_mult < math.inf:
            raise ValueError(f"rto_mult must be >= 1 and finite, got {self.rto_mult}")


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
        self.ssthresh = float(self.config.init_ssthresh)
        self.consecutive_timeouts = 0
        self.n_md = 0
        self.n_timeouts = 0
        self.n_slow_starts = 1

    @property
    def window(self) -> int:
        """Whole segments the next flight may carry."""
        return max(self.config.min_cwnd, int(self.cwnd))

    @property
    def in_slow_start(self) -> bool:
        """Whether the window is still doubling per RTT."""
        return self.cwnd < self.ssthresh

    def on_ack(self, n_acked: int) -> None:
        """Grow the window for ``n_acked`` delivered segments.

        Slow start adds one segment per ack (window doubles per RTT);
        congestion avoidance adds ``ai_segments·n/cwnd`` (one step per
        window's worth of acks).  A clean flight also resets the RTO
        backoff.
        """
        if n_acked <= 0:
            return
        cfg = self.config
        if self.in_slow_start:
            self.cwnd = min(float(cfg.max_cwnd), self.cwnd + float(n_acked))
        else:
            self.cwnd = min(
                float(cfg.max_cwnd),
                self.cwnd + cfg.ai_segments * n_acked / max(self.cwnd, 1.0),
            )
        self.consecutive_timeouts = 0

    def on_loss(self) -> None:
        """Multiplicative decrease: some (not all) of a flight was lost."""
        cfg = self.config
        self.ssthresh = max(float(cfg.min_cwnd), self.cwnd * cfg.md_factor)
        self.cwnd = self.ssthresh
        self.n_md += 1
        self.consecutive_timeouts = 0

    def on_timeout(self) -> None:
        """Retransmission timeout: an entire flight vanished.

        The window collapses to ``min_cwnd`` and re-enters slow start;
        consecutive timeouts drive :meth:`rto_s` exponentially, the
        classic backoff that keeps a dead link from being hammered.
        """
        cfg = self.config
        self.ssthresh = max(float(cfg.min_cwnd), self.cwnd * cfg.md_factor)
        self.cwnd = float(cfg.min_cwnd)
        self.n_timeouts += 1
        self.n_slow_starts += 1
        self.consecutive_timeouts += 1

    def rto_s(self, base_rtt_s: float) -> float:
        """Current retransmission timeout, exponentially backed off."""
        return base_rtt_s * self.config.rto_mult ** (1 + self.consecutive_timeouts)
