"""Per-replica circuit breakers over rolling error/latency windows.

A :class:`CircuitBreaker` watches one replica's recent outcomes (batch
completions and timeout fires) and walks the classic three-state
machine:

* **closed** — traffic flows; outcomes accumulate in a rolling window.
* **open** — too many failures (or too-slow successes): the replica is
  ejected from balancing for ``cooldown_s``.
* **half-open** — after cooldown a limited number of *probe* requests
  are admitted; all-successful probes close the breaker, any failure
  re-opens it.

Breakers observe only what a client could: response outcomes and their
latencies.  A partitioned replica looks identical to a slow one — the
timeout fires are what feed the breaker, which is exactly the
gray-failure behaviour the chaos harness pins down (safety: unhealthy
replicas get ejected; liveness: healthy ones are eventually re-admitted).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["BreakerConfig", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for one :class:`CircuitBreaker`.

    The breaker trips when, over the trailing ``window_s`` (with at
    least ``min_samples`` outcomes), either the error fraction exceeds
    ``error_threshold`` or — when ``latency_threshold_s`` is set — the
    mean success latency exceeds it.  It then ejects for ``cooldown_s``
    and re-admits via ``half_open_probes`` trial requests.
    """

    window_s: float = 0.5
    min_samples: int = 8
    error_threshold: float = 0.5
    latency_threshold_s: float | None = None
    cooldown_s: float = 0.25
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every comparison, so it is
        # rejected too.
        if not self.window_s > 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if not self.min_samples >= 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if not 0.0 < self.error_threshold <= 1.0:
            raise ValueError(
                f"error_threshold must be in (0, 1], got {self.error_threshold}"
            )
        if self.latency_threshold_s is not None and not self.latency_threshold_s > 0:
            raise ValueError(
                f"latency_threshold_s must be positive, got {self.latency_threshold_s}"
            )
        if not self.cooldown_s > 0:
            raise ValueError(f"cooldown_s must be positive, got {self.cooldown_s}")
        if not self.half_open_probes >= 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


@dataclass
class CircuitBreaker:
    """Rolling-window breaker for one replica (virtual-clock driven)."""

    config: BreakerConfig = field(default_factory=BreakerConfig)
    state: str = CLOSED
    opened_at_s: float = float("-inf")
    n_trips: int = 0
    _window: deque = field(default_factory=deque, repr=False)
    #: Failures in ``_window``, kept in step on append/evict/clear.
    _n_err: int = field(default=0, init=False, repr=False)
    _probes_out: int = 0
    _probes_ok: int = 0

    def _evict(self, now: float) -> None:
        horizon = now - self.config.window_s
        window = self._window
        while window and window[0][0] < horizon:
            if not window.popleft()[1]:
                self._n_err -= 1

    def record(self, now: float, ok: bool, latency_s: float = 0.0) -> None:
        """Feed one outcome (a batch completion or a timeout fire).

        In half-open state outcomes are interpreted as probe results:
        any failure re-opens immediately; ``half_open_probes``
        consecutive successes close the breaker and reset the window.
        """
        if self.state == HALF_OPEN:
            self._probes_out = max(0, self._probes_out - 1)
            if not ok:
                self._trip(now)
            else:
                self._probes_ok += 1
                if self._probes_ok >= self.config.half_open_probes:
                    self.state = CLOSED
                    self._window.clear()
                    self._n_err = 0
                    self._probes_out = 0
                    self._probes_ok = 0
            return
        self._window.append((now, ok, latency_s))
        if not ok:
            self._n_err += 1
        self._evict(now)
        if self.state == CLOSED and self._should_trip():
            self._trip(now)

    def _should_trip(self) -> bool:
        if len(self._window) < self.config.min_samples:
            return False
        if self._n_err / len(self._window) > self.config.error_threshold:
            return True
        if self.config.latency_threshold_s is not None:
            # Re-summed on purpose: a running float total would change
            # the summation order, and with it the trip instants.
            lats = [lat for _, ok, lat in self._window if ok]
            if lats and sum(lats) / len(lats) > self.config.latency_threshold_s:
                return True
        return False

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.opened_at_s = now
        self.n_trips += 1
        self._probes_out = 0
        self._probes_ok = 0

    def available(self, now: float) -> bool:
        """Whether the balancer may route to this replica right now.

        Open breakers transition to half-open once ``cooldown_s`` has
        elapsed, then admit at most ``half_open_probes`` outstanding
        probes until their outcomes arrive.  Checking availability does
        not consume a probe slot — the balancer calls
        :meth:`note_probe` only on the replica it actually picks.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at_s >= self.config.cooldown_s:
                self.state = HALF_OPEN
                self._probes_out = 0
                self._probes_ok = 0
            else:
                return False
        return self._probes_out + self._probes_ok < self.config.half_open_probes

    def note_probe(self) -> None:
        """Mark one half-open probe as dispatched (chosen replica only)."""
        if self.state == HALF_OPEN:
            self._probes_out += 1

    def void_probe(self) -> None:
        """Release a probe slot whose attempt was cancelled, not answered.

        A probe request can die without an outcome — its copy dropped at
        a flush boundary after a timeout, or its batch's response losing
        the race to a hedge twin.  The slot must be returned or the
        breaker wedges half-open forever, blocked on a response that can
        no longer arrive.  Clamped at zero: over-releasing (an attempt
        that got both a timeout record and a cancelled-copy void) can at
        worst admit one extra probe, never deadlock.
        """
        if self.state == HALF_OPEN:
            self._probes_out = max(0, self._probes_out - 1)

    def allow(self, now: float) -> bool:
        """:meth:`available` + :meth:`note_probe` in one call."""
        if not self.available(now):
            return False
        self.note_probe()
        return True
