"""Bundled resilience configuration for the cluster engine.

:class:`ResilienceConfig` is the single knob object
:class:`repro.cluster.Cluster` accepts (``resilience=...``): a
per-request timeout, a :class:`~repro.faults.retry.RetryPolicy`, an
optional hedge delay, per-replica
:class:`~repro.faults.breaker.BreakerConfig`, and an optional
:class:`~repro.faults.degrade.DegradationConfig`.  Passing ``None``
keeps the engine's historical naive behaviour bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.breaker import BreakerConfig
from repro.faults.degrade import DegradationConfig
from repro.faults.retry import RetryPolicy

__all__ = ["ResilienceConfig", "hedge_delay_for"]


@dataclass(frozen=True)
class ResilienceConfig:
    """What the cluster does about faults.

    ``timeout_s`` arms a per-attempt timer at dispatch; a fire marks the
    attempt failed, feeds the replica's breaker, and (budget permitting)
    schedules a backed-off retry.  ``hedge_delay_s``, when set, arms a
    speculative second dispatch that races the first — first response
    wins, the loser is cancelled and can never overwrite the winner.
    ``breaker`` configures per-replica ejection; ``degradation``
    (optional) walks the full → early-exit → shed ladder under
    sustained breaker pressure.
    """

    timeout_s: float = 0.1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge_delay_s: float | None = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    degradation: DegradationConfig | None = None

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every comparison, so it is
        # rejected too (a NaN timer would never fire).
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.hedge_delay_s is not None and not self.hedge_delay_s > 0:
            raise ValueError(
                f"hedge_delay_s must be positive, got {self.hedge_delay_s}"
            )
        if self.hedge_delay_s is not None and not self.hedge_delay_s < self.timeout_s:
            raise ValueError(
                f"hedge_delay_s ({self.hedge_delay_s}) must be < "
                f"timeout_s ({self.timeout_s}): a hedge that arms after "
                "the timeout can never win"
            )


def hedge_delay_for(
    backends, max_batch_size: int, max_wait_s: float, factor: float = 1.5
) -> float:
    """A p95-flavoured hedge delay from the fleet's own service model.

    The slowest healthy replica's worst-case batch (full, all-hard)
    plus the batcher's wait cap bounds how long a *healthy* response
    can take; hedging at ``factor`` times that only fires on genuine
    stragglers.  Deterministic — derived from the backends' timing
    model, not from sampled latencies — so oracle and live runs hedge
    at the same instants.
    """
    if not backends:
        raise ValueError("backends must be non-empty")
    if not factor > 0:  # false for NaN too
        raise ValueError(f"factor must be positive, got {factor}")
    worst = max(
        b.batch_service_s(max_batch_size, max_batch_size) for b in backends
    )
    return factor * (max_wait_s + worst)
