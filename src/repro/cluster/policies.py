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

Power-of-two draws its pairs from a block of 32-bit words, with the
same steps ``Generator.choice(n, 2, replace=False)`` takes: Floyd's
algorithm over Lemire's bounded draw (D. Lemire, "Fast Random Integer
Generation in an Interval", ACM TOMACS 29(1), 2019).  Each pair is the
one ``choice`` would have drawn, and :meth:`LoadBalancer.release`,
which the cluster calls once after its event loop, leaves the
generator where ``choice`` would have left it.

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

#: Words per block the power-of-two sampler draws ahead of use.
_BLOCK = 3072
_WORD = 1 << 32
_LOW = _WORD - 1


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

    def release(self) -> None:
        """Return any random words drawn ahead of use to the generator.

        The cluster calls this once after its event loop.  The base
        policy draws nothing ahead, so this does nothing.
        """


def _least(replicas: Sequence[Replica], now: float, load) -> Replica:
    """The replica minimizing ``(load(replica, now), replica_id)``.

    A plain loop rather than ``min(key=...)``: the balancers run this
    on every routed request, and building a key tuple per replica would
    cost more than the signal it wraps.
    """
    best = None
    for r in replicas:
        value = load(r, now)
        if best is None or value < best_value or (
            value == best_value and r.replica_id < best.replica_id
        ):
            best, best_value = r, value
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
        return _least(replicas, now, Replica.outstanding)


class JoinShortestQueue(LoadBalancer):
    """Send to the replica with the fewest requests waiting for service."""

    name = "join-shortest-queue"

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """Global minimum of :meth:`Replica.queue_depth` at ``now``."""
        return _least(replicas, now, Replica.queue_depth)


class PowerOfTwoChoices(LoadBalancer):
    """Probe two random replicas, take the one with fewer outstanding.

    The probes are the pair ``rng.choice(n, 2, replace=False)`` draws:
    ``a`` from ``[0, n-2]``, then ``b`` from ``[0, n-1]``, with
    ``b == a`` standing for ``n - 1``, then one word for the coin that
    shuffles the pair, which the comparison does not need (ties break on
    ``replica_id``).  Each draw is Lemire's: ``m = word * bound``, drawn
    again while ``m``'s low 32 bits fall below ``(2**32 - bound) %
    bound``, giving ``m >> 32``.  The words come from a block drawn
    ahead of use; :meth:`release` rewinds the generator to just past the
    words used.
    """

    name = "power-of-two"

    def __init__(self) -> None:
        self._rng: np.random.Generator | None = None  # the block's source
        self._state: dict | None = None  # its bit_generator.state before the block
        self._words: list[int] = []
        self._pos = 0

    def choose(
        self, replicas: list[Replica], now: float, rng: np.random.Generator
    ) -> Replica:
        """The less-loaded of two uniformly sampled distinct replicas."""
        n = len(replicas)
        if n == 1:
            return replicas[0]
        pos = self._pos
        if rng is self._rng and pos <= _BLOCK - 3:
            if n == 2:
                # No draw for a (its range is [0, 0]); the pair is the
                # whole fleet, and the bound-2 draws for b and the coin
                # never redraw.
                a, b = 0, 1
                self._pos = pos + 2
            else:
                words = self._words
                ma = words[pos] * (n - 1)
                mb = words[pos + 1] * n
                if ma & _LOW < n - 1 or mb & _LOW < n:
                    # A redraw may be due: take the word-by-word path.
                    a, b = self._pair(n, rng)
                else:
                    a, b = ma >> 32, mb >> 32
                    if b == a:
                        b = n - 1
                    self._pos = pos + 3
        else:
            a, b = self._pair(n, rng)
        ra, rb = replicas[a], replicas[b]
        la, lb = ra.outstanding(now), rb.outstanding(now)
        if lb < la or (lb == la and rb.replica_id < ra.replica_id):
            return rb
        return ra

    def release(self) -> None:
        """Rewind the generator to just past the words used, and drop the block.

        Restores the state saved before the block was drawn and draws
        again the words used, so the generator ends where the same
        calls to ``rng.choice`` would have left it.
        """
        rng = self._rng
        if rng is None:
            return
        rng.bit_generator.state = self._state
        rng.integers(0, _WORD, size=self._pos, dtype=np.uint32)
        self._rng = self._state = None
        self._words = []
        self._pos = 0

    def _pair(self, n: int, rng: np.random.Generator) -> tuple[int, int]:
        """One pair, drawn a word at a time (refills and redraws included)."""
        a = self._bounded(n - 1, rng) if n > 2 else 0
        b = self._bounded(n, rng)
        self._bounded(2, rng)  # the shuffle coin
        return a, (n - 1 if b == a else b)

    def _bounded(self, bound: int, rng: np.random.Generator) -> int:
        """Lemire's draw from ``[0, bound)``."""
        m = self._word(rng) * bound
        if m & _LOW < bound:
            threshold = (_WORD - bound) % bound
            while m & _LOW < threshold:
                m = self._word(rng) * bound
        return m >> 32

    def _word(self, rng: np.random.Generator) -> int:
        """The next word, drawing a new block when this one is spent."""
        if rng is not self._rng:
            self.release()
            self._rng = rng
            self._pos = _BLOCK
        if self._pos == _BLOCK:
            self._state = rng.bit_generator.state
            self._words = rng.integers(0, _WORD, size=_BLOCK, dtype=np.uint32).tolist()
            self._pos = 0
        word = self._words[self._pos]
        self._pos += 1
        return word


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

    def release(self) -> None:
        """Forward to the inner policy."""
        self.inner.release()

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
