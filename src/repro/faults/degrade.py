"""Graceful-degradation ladder driven by breaker pressure.

The paper's early-exit models give the serving stack a natural middle
rung between "full quality" and "shed the request": answer from the
early exit.  The :class:`DegradationController` walks that ladder
cluster-wide based on how much of the fleet the circuit breakers have
ejected:

* ``full`` — normal routing, model picks its own exit;
* ``degrade`` — new requests are forced onto the early-exit route
  (logged via the existing ``degraded`` column);
* ``shed`` — new requests are rejected outright.

Transitions require the pressure signal to hold for ``dwell_s`` of
virtual time, so a single breaker blip doesn't thrash the fleet through
quality modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.logging import get_logger

__all__ = [
    "MODE_FULL",
    "MODE_DEGRADE",
    "MODE_SHED",
    "DegradationConfig",
    "DegradationController",
]

MODE_FULL = "full"
MODE_DEGRADE = "degrade"
MODE_SHED = "shed"

logger = get_logger("faults.degrade")

_LADDER = (MODE_FULL, MODE_DEGRADE, MODE_SHED)


@dataclass(frozen=True)
class DegradationConfig:
    """Thresholds for walking the full → degrade → shed ladder.

    ``degrade_pressure``/``shed_pressure`` are fractions of the fleet
    with open (or half-open) breakers; the controller steps *down* the
    ladder when pressure sits above the next rung's threshold for
    ``dwell_s``, and steps back *up* when it sits below the current
    rung's threshold for the same dwell.  A ``shed_pressure`` above 1
    (``math.inf`` included) never sheds.
    """

    degrade_pressure: float = 0.25
    shed_pressure: float = 0.5
    dwell_s: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.degrade_pressure <= 1.0:
            raise ValueError(
                f"degrade_pressure must be in (0, 1], got {self.degrade_pressure}"
            )
        # Negated comparisons: NaN fails every comparison, so it is
        # rejected too.
        if not self.shed_pressure >= self.degrade_pressure:
            raise ValueError(
                f"shed_pressure ({self.shed_pressure}) must be >= "
                f"degrade_pressure ({self.degrade_pressure})"
            )
        if not 0 <= self.dwell_s < math.inf:
            raise ValueError(f"dwell_s must be finite and >= 0, got {self.dwell_s}")


@dataclass
class DegradationController:
    """Dwell-filtered mode ladder; ``update()`` then read ``mode``."""

    config: DegradationConfig = field(default_factory=DegradationConfig)
    # Runtime state: set by __post_init__ and update(), never passed.
    mode: str = field(init=False)
    n_transitions: int = field(init=False)
    _pending: str | None = field(init=False, repr=False)
    _pending_since_s: float = field(init=False)

    def __post_init__(self) -> None:
        self.mode = MODE_FULL
        self.n_transitions = 0
        self._pending = None
        self._pending_since_s = 0.0

    def _target(self, open_frac: float) -> str:
        if open_frac >= self.config.shed_pressure:
            return MODE_SHED
        if open_frac >= self.config.degrade_pressure:
            return MODE_DEGRADE
        return MODE_FULL

    def update(self, now: float, open_frac: float) -> str:
        """Feed the current breaker pressure; returns the active mode.

        ``open_frac`` is the fraction of replicas whose breakers are not
        closed.  A mode change only commits after the target mode has
        been continuously indicated for ``dwell_s`` of virtual time.
        """
        if not 0.0 <= open_frac <= 1.0:
            raise ValueError(f"open_frac must be in [0, 1], got {open_frac}")
        target = self._target(open_frac)
        if target == self.mode:
            self._pending = None
            return self.mode
        if target != self._pending:
            self._pending = target
            self._pending_since_s = now
        if now - self._pending_since_s >= self.config.dwell_s:
            # Walk one rung at a time so full -> shed always passes
            # through degrade (observable in per-mode counters).
            cur = _LADDER.index(self.mode)
            dst = _LADDER.index(target)
            cur += 1 if dst > cur else -1
            previous = self.mode
            self.mode = _LADDER[cur]
            self.n_transitions += 1
            logger.debug(
                "degradation mode %s -> %s at t=%.6fs (breaker pressure %.2f)",
                previous, self.mode, now, open_frac,
            )
            self._pending_since_s = now
            if self.mode == target:
                self._pending = None
        return self.mode
