"""Pluggable load-balancing policies for the fleet dispatcher.

Each policy answers one question: *which UP replica takes the request
arriving now?*  The signals they read differ in cost and quality, which
is exactly the trade the fleet experiment measures:

* **round-robin** — no signal at all; cycles the fleet.  The classic
  baseline, and visibly wrong for heterogeneous fleets (a Raspberry Pi
  gets the same share as a K80).
* **least-outstanding-requests** — global minimum of admitted-but-not-
  completed request copies.  Strong, but reads state from *every*
  replica on every decision (one cached count each, not a rescan).
* **join-shortest-queue** — global minimum of requests not yet in
  service (pending micro-batch + dispatched-but-waiting).  Ignores work
  already being served, so it reacts faster to queue build-up but can
  pile onto a replica grinding through a slow batch.
* **power-of-two-choices** — sample two random replicas, take the less
  loaded (by outstanding request copies).  Two probes per decision buy most
  of least-outstanding's tail benefit (Mitzenmacher's classic result),
  which is why it is the production default of real balancers.

Ties break toward the lowest ``replica_id``, keeping every policy
deterministic given the cluster's seeded RNG.

:class:`ResilientBalancer` wraps any of the above with per-replica
circuit breakers (:mod:`repro.faults.breaker`): replicas whose breakers
are open are filtered out of the candidate set before the inner policy
chooses, which is how breaker-driven ejection lives *inside* the
balancer rather than as a separate routing stage.  The cluster engine
installs it automatically when built with ``resilience=...``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cluster.replica import Replica
from repro.faults.breaker import CLOSED, BreakerConfig, CircuitBreaker

__all__ = [
    "LoadBalancer",
    "RoundRobin",
    "LeastOutstanding",
    "JoinShortestQueue",
    "PowerOfTwoChoices",
    "ResilientBalancer",
    "POLICY_NAMES",
    "make_policy",
]


class LoadBalancer:
    """Base policy: pick one UP replica for the request arriving ``now``."""

    name: str = "base"

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """Return the replica that takes the next request.

        ``replicas`` is the non-empty list of currently-UP replicas;
        ``rng`` is the cluster's seeded generator (used only by
        randomized policies, so deterministic runs stay deterministic).
        """
        raise NotImplementedError


def _least_outstanding(replicas: Sequence[Replica], now: float) -> Replica:
    """The replica minimizing ``(outstanding(now), replica_id)``.

    A plain loop rather than ``min(key=...)``: the balancers run this
    on every routed request, and building a key tuple per replica would
    cost more than the cached count it wraps.
    """
    best = None
    for r in replicas:
        load = r.outstanding(now)
        if best is None or load < best_load or (
            load == best_load and r.replica_id < best.replica_id
        ):
            best, best_load = r, load
    return best


class RoundRobin(LoadBalancer):
    """Cycle through the fleet in replica order, ignoring load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """Next replica in rotation (membership changes just shift the cycle)."""
        chosen = replicas[self._next % len(replicas)]
        self._next += 1
        return chosen


class LeastOutstanding(LoadBalancer):
    """Send to the replica with the fewest admitted-but-incomplete copies."""

    name = "least-outstanding"

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """Global minimum of :meth:`Replica.outstanding` at ``now``."""
        return _least_outstanding(replicas, now)


class JoinShortestQueue(LoadBalancer):
    """Send to the replica with the fewest requests waiting for service."""

    name = "join-shortest-queue"

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """Global minimum of :meth:`Replica.queue_depth` at ``now``."""
        return min(replicas, key=lambda r: (r.queue_depth(now), r.replica_id))


class PowerOfTwoChoices(LoadBalancer):
    """Probe two random replicas, take the one with fewer outstanding."""

    name = "power-of-two"

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """The less-loaded of two uniformly sampled distinct replicas."""
        if len(replicas) == 1:
            return replicas[0]
        i, j = rng.choice(len(replicas), size=2, replace=False)
        return _least_outstanding((replicas[int(i)], replicas[int(j)]), now)


class ResilientBalancer(LoadBalancer):
    """Per-replica circuit breakers wrapped around any inner policy.

    Keeps one :class:`~repro.faults.breaker.CircuitBreaker` per replica
    id, fed by the cluster engine (:meth:`observe`) with attempt
    outcomes — batch completions succeed, timeout fires and batch
    failures fail.  ``choose`` filters the candidate set down to
    replicas whose breakers admit traffic (closed, or half-open with a
    probe slot free) before delegating to the inner policy; if *every*
    candidate is ejected it falls back to the full set — a fleet with
    nothing but tripped breakers still routes rather than stranding
    requests (availability over breaker purity).
    """

    def __init__(
        self, inner: LoadBalancer, config: BreakerConfig | None = None
    ) -> None:
        self.inner = inner
        self.config = config if config is not None else BreakerConfig()
        self.breakers: dict[int, CircuitBreaker] = {}
        self.name = f"resilient+{inner.name}"

    def _breaker(self, replica_id: int) -> CircuitBreaker:
        breaker = self.breakers.get(replica_id)
        if breaker is None:
            breaker = self.breakers[replica_id] = CircuitBreaker(self.config)
        return breaker

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """Inner policy's pick among breaker-admitted replicas."""
        admitted = [
            r for r in replicas if self._breaker(r.replica_id).available(now)
        ]
        chosen = self.inner.choose(admitted or replicas, now, rng)
        self.breakers[chosen.replica_id].note_probe()
        return chosen

    def observe(
        self, replica_id: int, now: float, ok: bool, latency_s: float = 0.0
    ) -> None:
        """Feed one attempt outcome into the replica's breaker."""
        self._breaker(replica_id).record(now, ok, latency_s)

    def void(self, replica_id: int) -> None:
        """An attempt on this replica was cancelled before any outcome
        (copy dropped at a flush, or its response lost a hedge race):
        release the probe slot it may have consumed."""
        self._breaker(replica_id).void_probe()

    def open_fraction(self, replica_ids: list[int]) -> float:
        """Fraction of the given replicas whose breakers are not closed.

        This is the degradation controller's pressure signal; replicas
        the balancer has never routed to count as closed.
        """
        if not replica_ids:
            return 0.0
        n_open = sum(
            1
            for rid in replica_ids
            if rid in self.breakers and self.breakers[rid].state != CLOSED
        )
        return n_open / len(replica_ids)

    @property
    def n_trips(self) -> int:
        """Total breaker trips across the fleet (for the report)."""
        return sum(b.n_trips for b in self.breakers.values())


POLICY_NAMES: tuple[str, ...] = (
    RoundRobin.name,
    LeastOutstanding.name,
    JoinShortestQueue.name,
    PowerOfTwoChoices.name,
)

_POLICIES = {
    RoundRobin.name: RoundRobin,
    LeastOutstanding.name: LeastOutstanding,
    JoinShortestQueue.name: JoinShortestQueue,
    PowerOfTwoChoices.name: PowerOfTwoChoices,
}


def make_policy(name: str) -> LoadBalancer:
    """Instantiate a fresh policy by name (see :data:`POLICY_NAMES`)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown balancing policy {name!r}; choose from {POLICY_NAMES}"
        ) from None
