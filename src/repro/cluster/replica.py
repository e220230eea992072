"""One serving node of a fleet: a backend plus its local queue state.

A :class:`Replica` is one serving node: a device-calibrated
:class:`~repro.serving.backends.InferenceBackend` behind its own
:class:`~repro.serving.batcher.MicroBatcher` (or per-class
:class:`~repro.serving.priority.PriorityBatcher`) and a single worker.
The fleet engine (:mod:`repro.cluster.engine`) owns the global virtual
clock and dispatch; the replica owns everything local — pending
micro-batch, in-flight batches, lifecycle state, and the bookkeeping
that turns into the report's replica-seconds and availability columns.
A single serving node is a one-replica fleet, and a node with k workers
a k-replica one.

Lifecycle::

    WARMING ──warmup done──► UP ──drain──► DRAINING ──queue empty──► DOWN
       ▲                      │ crash                                  │
       └───────recover────────┴────────────────────────────────────────┘

Replica-seconds accrue from the moment a replica is provisioned
(WARMING counts — capacity you pay for before it serves) until it goes
DOWN, which is how the autoscaler's warm-up cost shows up in the fleet
report's cost column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

from repro.serving.backends import InferenceBackend
from repro.serving.batcher import MicroBatcher
from repro.serving.classes import ClassSet
from repro.serving.priority import PriorityBatcher
from repro.serving.router import RouteDecision

__all__ = ["ReplicaState", "InFlightBatch", "Replica"]


class ReplicaState:
    """Lifecycle states of one fleet replica (string constants)."""

    WARMING = "warming"  # provisioned, paying warm-up, not yet serving
    UP = "up"  # serving traffic
    DRAINING = "draining"  # finishing its queue, receiving no new requests
    DOWN = "down"  # crashed or fully drained

    ALL = (WARMING, UP, DRAINING, DOWN)


@dataclass(frozen=True)
class InFlightBatch:
    """One dispatched micro-batch on a replica's worker.

    ``start_s`` may lie in the future relative to dispatch time (the
    worker was still busy); ``completion_s = start_s + service``.  A
    crash before ``completion_s`` cancels the batch and its requests are
    re-dispatched by the cluster.

    Under fault injection (:mod:`repro.faults`) the response can detach
    from the work: ``work_done_s`` is when the worker actually frees
    (``None`` means ``completion_s``, the default healthy case), while
    ``completion_s`` is when the *response* lands — later than the work
    when a partition defers it.  ``failed`` marks a flaky batch whose
    response is a failure; ``tokens`` carries each request's attempt
    token at dispatch so the engine can tell a live attempt's response
    from a cancelled one's.
    """

    indices: tuple[int, ...]
    decision: RouteDecision | None
    start_s: float
    completion_s: float
    work_done_s: float | None = None
    failed: bool = False
    tokens: tuple[int, ...] | None = None

    @property
    def worker_end_s(self) -> float:
        """When the worker frees (work end, not response arrival)."""
        return self.completion_s if self.work_done_s is None else self.work_done_s


@dataclass
class Replica:
    """One node of the fleet: backend + micro-batcher + one worker.

    Parameters
    ----------
    replica_id:
        Stable index into the cluster's replica list (also what the
        balancer's tie-breaking and the report's per-replica rows use).
    backend:
        The :class:`~repro.serving.backends.InferenceBackend` that
        provides routing, service times, and real predictions.
    max_batch_size, max_wait_s:
        This replica's micro-batcher triggers (replicas may differ —
        e.g. a GPU replica batching wider than a Pi).
    classes, scheduler:
        Multi-tenant mode: a :class:`~repro.serving.classes.ClassSet`
        swaps the FIFO micro-batcher for per-class queues
        (:class:`~repro.serving.priority.PriorityBatcher`, ordered by
        ``scheduler``) and gates flushes on the worker being free, so
        the local queue genuinely reorders under backlog.
    """

    replica_id: int
    backend: InferenceBackend
    max_batch_size: int = 16
    max_wait_s: float = 0.004
    state: str = ReplicaState.UP
    classes: ClassSet | None = None
    scheduler: str = "priority"
    # Runtime state: set by __post_init__ and the engine, never passed.
    batcher: MicroBatcher | PriorityBatcher = field(init=False, repr=False)
    in_flight: list[InFlightBatch] = field(init=False, repr=False)
    #: Request copies across ``in_flight`` (kept in step by commit,
    #: purge and crash, so load signals need not re-sum the batches).
    n_in_flight: int = field(init=False, repr=False)
    worker_free_s: float = field(init=False)
    busy_s: float = field(init=False)
    up_since_s: float | None = field(init=False)
    up_seconds: float = field(init=False)
    last_completion_s: float = field(init=False)
    drain_started_s: float = field(init=False)
    n_batches: int = field(init=False)
    n_requests: int = field(init=False)
    n_crashes: int = field(init=False)
    #: Fault state (set by the engine's fault events): service-time
    #: multiplier (1.0 = nominal) and per-batch failure probability.
    slow_factor: float = field(init=False)
    flaky_p: float = field(init=False)
    #: Provisioning epoch: bumped on every provision() so stale
    #: warm-up-complete events from an earlier epoch can be ignored.
    generation: int = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.replica_id, Integral) and self.replica_id >= 0):
            raise ValueError(f"replica_id must be an integer >= 0, got {self.replica_id}")
        if self.classes is not None:
            self.batcher = PriorityBatcher(
                self.classes,
                self.max_batch_size,
                self.max_wait_s,
                ordering=self.scheduler,
            )
        else:
            self.batcher = MicroBatcher(self.max_batch_size, self.max_wait_s)
        self.in_flight = []
        self.n_in_flight = 0
        self.worker_free_s = 0.0
        self.busy_s = 0.0
        self.up_since_s = None if self.state == ReplicaState.DOWN else 0.0
        self.up_seconds = 0.0
        self.last_completion_s = 0.0
        self.drain_started_s = 0.0
        self.n_batches = 0
        self.n_requests = 0
        self.n_crashes = 0
        self.slow_factor = 1.0
        self.flaky_p = 0.0
        self.generation = 0

    # ------------------------------------------------------------------ #
    # balancer / autoscaler signals
    # ------------------------------------------------------------------ #
    def outstanding(self, now: float) -> int:
        """Request copies routed here whose batch has not completed by ``now``.

        Counts copies, not requests: a hedged request counts on both
        replicas while both copies live, and a copy cancelled by a
        timeout keeps counting in the queue until its flush drops it.

        Reads the running :attr:`n_in_flight` count.  Only a read at a
        ``now`` past a completion not yet purged (the engine purges
        before every read it makes) re-sums the batches, using the same
        head check as :meth:`purge`.
        """
        in_flight = self.in_flight
        if in_flight and in_flight[0].completion_s <= now:
            return len(self.batcher) + sum(
                len(b.indices) for b in in_flight if b.completion_s > now
            )
        return len(self.batcher) + self.n_in_flight

    def queue_depth(self, now: float) -> int:
        """Request copies waiting (pending batch + dispatched but not started).

        Walks ``in_flight`` from the newest batch and stops at the first
        one started by ``now``.  Start times never fall within a replica
        (each batch starts at ``max(flush, worker_free_s)``, and the
        worker frees no earlier than the last batch started), and purge
        keeps a suffix, so the batches not yet started are a suffix.
        """
        depth = len(self.batcher)
        in_flight = self.in_flight
        i = len(in_flight) - 1
        while i >= 0 and in_flight[i].start_s > now:
            depth += len(in_flight[i].indices)
            i -= 1
        return depth

    @property
    def available(self) -> bool:
        """Whether the balancer may send this replica new requests."""
        return self.state == ReplicaState.UP

    # ------------------------------------------------------------------ #
    # dispatch bookkeeping (the cluster computes the batch, we record it)
    # ------------------------------------------------------------------ #
    def commit(self, batch: InFlightBatch) -> None:
        """Record one dispatched batch and occupy the worker."""
        self.in_flight.append(batch)
        self.n_in_flight += len(batch.indices)
        self.worker_free_s = batch.worker_end_s
        self.busy_s += batch.worker_end_s - batch.start_s
        self.last_completion_s = max(self.last_completion_s, batch.completion_s)
        self.n_batches += 1
        self.n_requests += len(batch.indices)

    def purge(self, now: float) -> list[InFlightBatch]:
        """Move batches completed by ``now`` out of the in-flight set.

        Also finalizes a drain: a DRAINING replica whose batcher and
        in-flight set are both empty goes DOWN, billed up to the moment
        its last batch completed (not up to ``now``).
        """
        in_flight = self.in_flight
        # The head check makes a stale completion-heap entry (its batch
        # was cancelled by a crash) a no-op: one worker per replica means
        # completions are non-decreasing, so the head batch bounds them
        # all.  (A drain with an empty queue still needs finalizing.)
        if not in_flight or in_flight[0].completion_s > now:
            done = []
        else:
            done = [b for b in in_flight if b.completion_s <= now]
            self.in_flight = [b for b in in_flight if b.completion_s > now]
            self.n_in_flight -= sum(len(b.indices) for b in done)
        if (
            self.state == ReplicaState.DRAINING
            and not self.in_flight
            and not self.batcher
        ):
            down_at = max(self.drain_started_s, self.last_completion_s)
            self._close_books(down_at)
            self.state = ReplicaState.DOWN
        return done

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def provision(self, now: float) -> None:
        """Start paying for this replica (spawn or recover → WARMING)."""
        if self.state != ReplicaState.DOWN:
            raise RuntimeError(
                f"replica {self.replica_id} cannot be provisioned while {self.state}"
            )
        self.state = ReplicaState.WARMING
        self.generation += 1
        self.up_since_s = now
        self.worker_free_s = now

    def mark_up(self, now: float) -> None:
        """Warm-up finished: start receiving traffic."""
        if self.state != ReplicaState.WARMING:
            return  # cancelled by a crash while warming
        self.state = ReplicaState.UP
        self.worker_free_s = max(self.worker_free_s, now)

    def start_drain(self, now: float) -> None:
        """Stop receiving new requests; finish the local queue, then DOWN."""
        if self.state not in (ReplicaState.UP, ReplicaState.WARMING):
            return
        self.state = ReplicaState.DRAINING
        self.drain_started_s = now
        self.purge(now)

    def crash(self, now: float) -> list[int]:
        """Fail immediately; return the request ids whose work was lost.

        The caller must :meth:`purge` the cluster clock up to ``now``
        first, so every batch still in flight here is cancelled work.
        """
        lost = list(self.batcher.drain()) if self.batcher else []
        for batch in self.in_flight:
            lost.extend(batch.indices)
            # Roll back the commit-time billing for the part of the
            # batch that never ran: only work executed before the crash
            # counts as busy, and the cancelled completion must not leak
            # into drain/bill_to accounting.  (A partition-deferred batch
            # whose work already finished rolls back nothing.)
            self.busy_s -= max(0.0, batch.worker_end_s - max(now, batch.start_s))
        self.in_flight = []
        self.n_in_flight = 0
        self.last_completion_s = min(self.last_completion_s, now)
        self._close_books(now)
        self.state = ReplicaState.DOWN
        self.worker_free_s = now
        self.n_crashes += 1
        return lost

    def bill_to(self, now: float) -> None:
        """Close the replica-seconds books at end of simulation."""
        if self.state != ReplicaState.DOWN:
            self._close_books(max(now, self.last_completion_s))

    def _close_books(self, down_at: float) -> None:
        if self.up_since_s is not None:
            self.up_seconds += max(0.0, down_at - self.up_since_s)
            self.up_since_s = None

    def next_deadline_s(self) -> float:
        """Virtual time of this replica's next pending flush (inf if none).

        Single-class replicas flush on the micro-batcher deadline alone
        (the size trigger is handled at add time).  Multi-tenant
        replicas additionally gate on the worker being free: the queue
        is held in the priority batcher — where scheduling order
        matters — instead of racing ahead into the worker's FIFO, so
        the next flush is ``worker_free_s`` once a full batch is
        pending, else ``max(deadline, worker_free_s)``.

        Invariant: the value falls only when a request joins the
        batcher.  Flush, commit, purge, crash, drain, provisioning and
        coming UP with an empty batcher keep it, raise it or make it
        ``inf``; the engine's deadline floor relies on this to skip
        scans that cannot fire a flush.
        """
        if self.state not in (ReplicaState.UP, ReplicaState.DRAINING):
            return math.inf
        if self.classes is None:
            return self.batcher.deadline_s
        if not self.batcher:
            return math.inf
        if len(self.batcher) >= self.batcher.max_batch_size:
            return self.worker_free_s
        return max(self.batcher.deadline_s, self.worker_free_s)

    def should_dispatch(self, now: float) -> bool:
        """Whether a flush is due at ``now`` (used at add time)."""
        if self.classes is None:
            return self.batcher.should_flush(now)
        return self.next_deadline_s() <= now
