"""Per-replica circuit breakers over rolling error windows.

A :class:`CircuitBreaker` watches one replica's recent outcomes (batch
completions and timeout fires) and walks the classic three-state
machine:

* **closed** — traffic flows; outcomes accumulate in a rolling window.
* **open** — too many failures: the replica is ejected from balancing
  for ``cooldown_s``.
* **half-open** — after cooldown a limited number of *probe* requests
  are admitted; all-successful probes close the breaker, any failure
  re-opens it.

Breakers observe only what a client could: response outcomes.  A
partitioned replica looks identical to a slow one — the
timeout fires are what feed the breaker, which is exactly the
gray-failure behaviour the chaos harness pins down (safety: unhealthy
replicas get ejected; liveness: healthy ones are eventually re-admitted).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral

__all__ = ["BreakerConfig", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for one :class:`CircuitBreaker`.

    The breaker trips when, over the trailing ``window_s`` (with at
    least ``min_samples`` outcomes), the error fraction exceeds
    ``error_threshold``.  It then ejects for ``cooldown_s``
    and re-admits via ``half_open_probes`` trial requests.  Durations
    are finite (an endless cooldown would never re-admit a healed
    replica) and counts are integers.
    """

    window_s: float = 0.5
    min_samples: int = 8
    error_threshold: float = 0.5
    cooldown_s: float = 0.25
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every comparison, so it is
        # rejected too.
        if not 0 < self.window_s < math.inf:
            raise ValueError(f"window_s must be positive and finite, got {self.window_s}")
        if not (isinstance(self.min_samples, Integral) and self.min_samples >= 1):
            raise ValueError(f"min_samples must be an integer >= 1, got {self.min_samples}")
        if not 0.0 < self.error_threshold <= 1.0:
            raise ValueError(
                f"error_threshold must be in (0, 1], got {self.error_threshold}"
            )
        if not 0 < self.cooldown_s < math.inf:
            raise ValueError(f"cooldown_s must be positive and finite, got {self.cooldown_s}")
        if not (isinstance(self.half_open_probes, Integral) and self.half_open_probes >= 1):
            raise ValueError(
                f"half_open_probes must be an integer >= 1, got {self.half_open_probes}"
            )


@dataclass
class CircuitBreaker:
    """Rolling-window breaker for one replica (virtual-clock driven)."""

    config: BreakerConfig = field(default_factory=BreakerConfig)
    # Runtime state: set by __post_init__ and the outcomes, never passed.
    state: str = field(init=False)
    opened_at_s: float = field(init=False)
    n_trips: int = field(init=False)
    _window: deque = field(init=False, repr=False)
    #: Failures in ``_window``, kept in step on append/evict/clear.
    _n_err: int = field(init=False, repr=False)
    _probes_out: int = field(init=False)
    _probes_ok: int = field(init=False)

    def __post_init__(self) -> None:
        self.state = CLOSED
        self.opened_at_s = float("-inf")
        self.n_trips = 0
        self._window = deque()
        self._n_err = 0
        self._probes_out = 0
        self._probes_ok = 0

    def _evict(self, now: float) -> None:
        horizon = now - self.config.window_s
        window = self._window
        while window and window[0][0] < horizon:
            if not window.popleft()[1]:
                self._n_err -= 1

    def record(self, now: float, ok: bool) -> None:
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
        self._window.append((now, ok))
        if not ok:
            self._n_err += 1
        self._evict(now)
        if self.state == CLOSED and self._should_trip():
            self._trip(now)

    def _should_trip(self) -> bool:
        if len(self._window) < self.config.min_samples:
            return False
        return self._n_err / len(self._window) > self.config.error_threshold

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
