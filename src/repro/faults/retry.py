"""Jittered exponential-backoff retry budgets.

A :class:`RetryPolicy` is the client-side half of timeout handling: when
a request's attempt times out (or its batch fails), the engine consults
the policy for whether another attempt is allowed and how long to back
off first.  Delays are *deterministic given the uniform draw* passed in
— the engine feeds draws from the fault plan's dedicated seeded stream,
which is what keeps retry timing identical between oracle and ``--live``
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    ``max_retries`` is the explicit budget of *re*-attempts per request
    (0 disables retries; the first attempt is always free).  Attempt
    ``k`` (1-based) backs off ``base_backoff_s * backoff_mult**(k-1)``,
    capped at ``max_backoff_s``, then jittered uniformly within
    ``±jitter_frac`` of itself so synchronized timeout storms decorrelate.
    """

    max_retries: int = 2
    base_backoff_s: float = 0.005
    backoff_mult: float = 2.0
    max_backoff_s: float = 0.25
    jitter_frac: float = 0.25

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every comparison, so it is
        # rejected too.
        if not self.max_retries >= 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.base_backoff_s >= 0:
            raise ValueError(
                f"base_backoff_s must be >= 0, got {self.base_backoff_s}"
            )
        if not self.backoff_mult >= 1.0:
            raise ValueError(f"backoff_mult must be >= 1, got {self.backoff_mult}")
        if not self.max_backoff_s >= self.base_backoff_s:
            raise ValueError(
                f"max_backoff_s ({self.max_backoff_s}) must be >= "
                f"base_backoff_s ({self.base_backoff_s})"
            )
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError(
                f"jitter_frac must be in [0, 1], got {self.jitter_frac}"
            )

    def allows(self, retries_so_far: int) -> bool:
        """Whether another retry fits in the budget."""
        return retries_so_far < self.max_retries

    def delay_s(self, attempt: int, u: float) -> float:
        """Backoff before (1-based) retry ``attempt``, jittered by draw ``u``.

        ``u`` is a uniform [0, 1) sample supplied by the caller; the
        same draw always yields the same delay, so a seeded stream
        makes the whole retry schedule replayable.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = self.base_backoff_s * self.backoff_mult ** (attempt - 1)
        base = min(base, self.max_backoff_s)
        jitter = 1.0 + self.jitter_frac * (2.0 * u - 1.0)
        return base * jitter
