"""`repro.faults` — fault models and resilience mechanisms for serving.

The layer that makes *degraded-mode operation* a first-class, tested
scenario class.  Two halves:

* **Fault taxonomy** (:mod:`repro.faults.plan`) — typed injections on
  the virtual clock: ``crash``/``recover`` (a replica drops and comes
  back, see :func:`crash_window` and :func:`poisson_failures`),
  ``slowdown`` (a replica turns into a straggler), ``partition``/
  ``heal`` (a link blackholes responses), and ``flaky`` (elevated
  per-batch failure probability).  A :class:`FaultPlan` bundles them
  into one seeded, deterministically-ordered storm that replays
  identically in oracle and ``--live`` modes.
* **Resilience mechanisms** — what a production stack does about it:
  per-request timeouts with jittered exponential-backoff retries under
  an explicit budget (:mod:`repro.faults.retry`), hedged dispatch
  (speculative second replica, first response wins), and per-replica
  circuit breakers fed by rolling error windows
  (:mod:`repro.faults.breaker`) — all bundled into a
  :class:`ResilienceConfig` consumed by
  :class:`repro.cluster.Cluster(resilience=...)`.

Quick tour::

    from repro.cluster import Cluster
    from repro.faults import FaultPlan, ResilienceConfig, fault_storm

    plan = fault_storm(n_replicas=4, horizon_s=2.0, rng=0)
    cluster = Cluster(backends, policy="power-of-two", faults=plan,
                      resilience=ResilienceConfig(timeout_s=0.08))
    report = cluster.serve(images, arrival_s)
    print(report.n_timed_out, report.n_hedged, report.availability)
"""

from repro.faults.breaker import BreakerConfig, CircuitBreaker
from repro.faults.plan import (
    CRASH,
    FLAKY,
    HEAL,
    PARTITION,
    RECOVER,
    SLOWDOWN,
    Fault,
    FaultPlan,
    crash_window,
    fault_storm,
    flaky_window,
    partition_window,
    poisson_failures,
    slowdown_window,
)
from repro.faults.resilience import ResilienceConfig, hedge_delay_for
from repro.faults.retry import RetryPolicy

__all__ = [
    "Fault",
    "FaultPlan",
    "CRASH",
    "RECOVER",
    "SLOWDOWN",
    "PARTITION",
    "HEAL",
    "FLAKY",
    "slowdown_window",
    "partition_window",
    "flaky_window",
    "crash_window",
    "poisson_failures",
    "fault_storm",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerConfig",
    "ResilienceConfig",
    "hedge_delay_for",
]
