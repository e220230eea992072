"""The fleet engine: balancer → replicas → autoscaler/faults → report.

:class:`Cluster` lifts :mod:`repro.serving` from one node to a fleet.
It replays an arrival trace on a single virtual clock shared by every
replica:

1. an arriving request is checked against the cluster-wide LRU result
   cache (results become visible at their batch's *completion* time,
   exactly as in the single-node engine);
2. the :class:`~repro.cluster.admission.AdmissionController` may shed it
   (reject outright, or degrade it onto the early-exit path);
3. the :class:`~repro.cluster.policies.LoadBalancer` picks an UP replica
   and the request joins that replica's micro-batcher; batches dispatch
   to the replica's worker with the backend's calibrated service time;
4. between arrivals, the virtual clock services batch completions,
   deadline flushes, :class:`~repro.cluster.autoscaler.Autoscaler`
   control ticks, and the injected :class:`~repro.faults.FaultPlan` —
   a crash cancels the replica's queued and in-flight work and
   re-dispatches it through the balancer (counted as retries).
   Completions come off a heap of ``(completion_s, replica_id)``
   entries, so advancing the clock touches only the replicas with a
   batch due, not the whole fleet; a deadline floor (a lower bound on
   every replica's next flush) skips the scan for due flushes at every
   event before it.

Once the timeline is fixed, every surviving batch runs through its
replica's backend — real model inference, or precomputed-table lookups
when the fleet is built from :class:`repro.sim.OracleBackend` wrappers —
so the :class:`ClusterReport` carries genuine served accuracy next to
the latency, shedding, availability, and replica-seconds columns.
Each backend's finished batches are packed, in finish order, into
``predict`` calls of at most ``max_batch_size`` rows with their routing
decisions joined; predictions are per sample and never feed back into
the timeline, so the packing changes host time only.

Per-request bookkeeping is the structure-of-arrays
:class:`~repro.sim.records.RequestLog`; arrivals are consumed from a
sorted cursor merged against the event heap, so a million-request trace
costs a million cheap loop iterations, not a million heap pushes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.admission import ACCEPT, DEGRADE, REJECT, AdmissionController
from repro.cluster.autoscaler import Autoscaler
from repro.cluster.policies import LoadBalancer, ResilientBalancer, make_policy
from repro.cluster.replica import InFlightBatch, Replica, ReplicaState
from repro.eval.metrics import latency_percentiles
from repro.faults.degrade import MODE_DEGRADE, MODE_SHED, DegradationController
from repro.faults.plan import CRASH, FLAKY, RECOVER, SLOWDOWN, FaultPlan
from repro.faults.resilience import ResilienceConfig
from repro.obs.prof import current_profiler
from repro.obs.spans import (
    EV_BATCH_FAIL,
    EV_BREAKER_TRIP,
    EV_CRASH as _OBS_CRASH,
    EV_FAULT as _OBS_FAULT,
    EV_HEDGE as _OBS_HEDGE,
    EV_RECOVER as _OBS_RECOVER,
    EV_RETRY as _OBS_RETRY,
    EV_SCALE as _OBS_SCALE,
    EV_TIMEOUT as _OBS_TIMEOUT,
)
from repro.eval.tables import Table
from repro.serving.backends import InferenceBackend
from repro.serving.cache import LRUResultCache
from repro.serving.classes import (
    DEFAULT_CLASSES,
    ClassReport,
    ClassSet,
    per_class_reports,
)
from repro.serving.request import Request
from repro.serving.router import RouteDecision
from repro.sim.core import request_keys, validate_trace
from repro.sim.records import (
    ROUTE_BATCHED,
    ROUTE_CACHED,
    ROUTE_EASY,
    ROUTE_HARD,
    ROUTE_SHED,
    RequestLog,
)
from repro.utils.logging import get_logger
from repro.utils.rng import as_generator

__all__ = ["Cluster", "ClusterReport", "fleet_comparison_table"]

logger = get_logger("cluster.engine")

# Event kinds, in tie-breaking order at equal timestamps: a replica that
# finishes warming at t may serve the arrival at t; crashes hit before
# the work that would have ridden the doomed replica; fault-state
# changes land next, then resilience timers (a timeout at t cancels
# before the retry/hedge it scheduled for the same instant dispatches).
# Arrivals are not heap events (they stream from a sorted cursor) but
# keep the largest kind so heap events at an equal timestamp win the
# tie, as before.
(
    _EV_UP,
    _EV_CRASH,
    _EV_RECOVER,
    _EV_FAULT,
    _EV_TIMEOUT,
    _EV_RETRY,
    _EV_HEDGE,
    _EV_TICK,
    _EV_ARRIVAL,
) = range(9)


@dataclass(frozen=True)
class ClusterReport:
    """Everything one fleet run produced, ready for tables and asserts."""

    policy: str
    scenario: str
    n_requests: int
    n_served: int
    n_shed: int
    n_unserved: int
    n_degraded: int
    n_retried: int
    n_cached: int
    n_replicas_start: int
    peak_replicas: int
    n_replicas_end: int
    duration_s: float
    throughput_rps: float
    arrival_rate_hz: float
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float
    mean_batch_size: float
    slo_s: float
    slo_attainment: float
    replica_seconds: float
    utilization: float
    cache_hit_rate: float
    n_crashes: int
    scale_ups: int
    scale_downs: int
    accuracy: float = float("nan")
    #: Per-request-class slices (empty for single-class runs).
    class_reports: tuple[ClassReport, ...] = ()
    #: Resilience columns (all zero without faults/resilience): requests
    #: with >= 1 timed-out attempt, requests hedged, batches whose
    #: response was a failure (flaky/unhealed partition), and breaker
    #: trips across the fleet.
    n_timed_out: int = 0
    n_hedged: int = 0
    n_batch_failures: int = 0
    n_breaker_trips: int = 0

    def summary(self) -> str:
        """One-line fleet digest (the cluster sibling of ServingReport.summary)."""
        return (
            f"[{self.policy}/{self.scenario}] {self.throughput_rps:.0f} req/s | "
            f"p99 {self.p99_s * 1e3:.2f} ms | SLO {self.slo_attainment:.1%} | "
            f"shed {self.shed_rate:.1%} | {self.replica_seconds:.1f} replica-s | "
            f"avail {self.availability:.1%}"
        )

    @property
    def shed_rate(self) -> float:
        """Fraction of requests rejected by admission control."""
        return self.n_shed / self.n_requests if self.n_requests else 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests actually served (not shed, not stranded)."""
        return self.n_served / self.n_requests if self.n_requests else 0.0


def fleet_comparison_table(reports: list[ClusterReport], title: str = "") -> Table:
    """Render several fleet runs side by side (one row per run)."""
    table = Table(
        headers=[
            "policy",
            "req/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "SLO",
            "shed",
            "avail",
            "repl-s",
            "peak",
            "acc",
        ],
        title=title,
    )
    for r in reports:
        table.add_row(
            r.policy,
            f"{r.throughput_rps:.0f}",
            f"{r.p50_s * 1e3:.2f}",
            f"{r.p95_s * 1e3:.2f}",
            f"{r.p99_s * 1e3:.2f}",
            f"{r.slo_attainment:.1%}",
            f"{r.shed_rate:.1%}",
            f"{r.availability:.1%}",
            f"{r.replica_seconds:.1f}",
            str(r.peak_replicas),
            "-" if np.isnan(r.accuracy) else f"{r.accuracy:.1%}",
        )
    return table


@dataclass
class _Books:
    """Mutable per-serve state (kept off the Cluster so serve() is reentrant)."""

    log: RequestLog
    images: np.ndarray
    keys: list | None
    cache: LRUResultCache
    finished: list[tuple[Replica, InFlightBatch]] = field(default_factory=list)
    # (completion, req) pairs feeding the autoscaler's p95 window; only
    # recorded when an autoscaler is attached (a million-request trace
    # should not pay for a signal nobody reads).
    completions: list[tuple[float, int]] = field(default_factory=list)
    track_completions: bool = False
    stranded: list[int] = field(default_factory=list)
    visibility: list[tuple[float, int, object]] = field(default_factory=list)
    # Per-class outstanding bookkeeping for weighted-fair admission:
    # counts are settled lazily from a (completion_s, idx) heap, with a
    # per-request counted flag so a crash-cancelled completion whose
    # retry lands on the same timestamp cannot double-decrement.
    class_outstanding: np.ndarray | None = None
    class_events: list[tuple[float, int]] = field(default_factory=list)
    class_counted: np.ndarray | None = None
    # Resilience bookkeeping (allocated only with a ResilienceConfig):
    # attempt[i] is the request's current attempt token — bumped on
    # every cancel/win, so stale timers and late responses compare
    # unequal and drop; pending[i] counts copies of i sitting in
    # batchers; drop[i] counts queued copies cancelled before flush
    # (consumed one per flush, dropping the first occurrence).
    attempt: np.ndarray | None = None
    pending: np.ndarray | None = None
    drop: np.ndarray | None = None


class _Chunk:
    """Finished rows of one backend waiting for one ``predict`` call.

    ``rows`` are request indices in finish order and ``decisions`` the
    member batches' routing decisions.  ``picks`` are the positions of
    ``rows`` within the joined decisions; it stays ``None`` until a
    member drops rows, and ``width`` counts the joined positions.
    """

    __slots__ = ("backend", "rows", "decisions", "picks", "width")

    def __init__(self, backend: InferenceBackend) -> None:
        self.backend = backend
        self.rows: list[int] = []
        self.decisions: list[RouteDecision] = []
        self.picks: list[int] | None = None
        self.width = 0

    def add(self, batch: InFlightBatch, keep: list[int] | None) -> None:
        """Append ``batch``'s rows at positions ``keep`` (``None``: all)."""
        indices, width = batch.indices, self.width
        if keep is None:
            self.rows.extend(indices)
            if self.picks is not None:
                self.picks.extend(range(width, width + len(indices)))
        else:
            if self.picks is None:
                self.picks = list(range(width))
            self.rows.extend([indices[p] for p in keep])
            self.picks.extend([width + p for p in keep])
        if batch.decision is not None:
            self.decisions.append(batch.decision)
        self.width = width + len(indices)

    def predict(self, images: np.ndarray, prediction: np.ndarray) -> None:
        """One ``predict`` call over the chunk, written into ``prediction``."""
        idx = np.asarray(self.rows, dtype=np.intp)
        prediction[idx] = self.backend.predict(images[idx], self.decision())

    def decision(self) -> RouteDecision | None:
        """The member decisions joined field by field, at ``picks``."""
        decisions, picks = self.decisions, self.picks
        if not decisions:
            return None
        if len(decisions) == 1 and picks is None:
            return decisions[0]

        def join(parts: list[np.ndarray]) -> np.ndarray:
            joined = np.concatenate(parts)
            return joined if picks is None else joined[picks]

        labels = [d.predictions for d in decisions]
        return RouteDecision(
            easy=join([d.easy for d in decisions]),
            entropy=join([d.entropy for d in decisions]),
            predictions=None if any(p is None for p in labels) else join(labels),
        )


class Cluster:
    """Fleet-level serving simulation over heterogeneous replicas.

    Parameters
    ----------
    backends:
        One :class:`~repro.serving.backends.InferenceBackend` per initial
        replica (heterogeneous fleets pass backends built from different
        :class:`~repro.hw.device.DeviceProfile` calibrations).  Mixing
        oracle-wrapped and live backends in one fleet is rejected — the
        request stream is either sample ids or pixels, not both.
    policy:
        A :class:`~repro.cluster.policies.LoadBalancer` instance or a
        policy name (see :data:`~repro.cluster.policies.POLICY_NAMES`).
    admission:
        Optional :class:`~repro.cluster.admission.AdmissionController`.
    autoscaler:
        Optional :class:`~repro.cluster.autoscaler.Autoscaler`; its
        control loop runs every ``config.interval_s`` virtual seconds.
    faults:
        Optional :class:`~repro.faults.FaultPlan` of typed injections
        (crash/recover, slowdowns, partitions, flaky windows) replayed
        on the virtual clock — seeded, so identical in oracle and live
        modes.
    resilience:
        Optional :class:`~repro.faults.ResilienceConfig`.  When set, the
        engine arms a per-attempt timeout (+ optional hedge) on every
        routed request, retries failed/timed-out attempts under the
        config's budget with jittered backoff, wraps the balancer in a
        :class:`~repro.cluster.policies.ResilientBalancer` (per-replica
        circuit breakers), and — if the config carries a degradation
        ladder — walks full → early-exit → shed under sustained breaker
        pressure.  ``None`` (default) preserves the naive engine
        bit-for-bit: faults still strike, nothing fights back.
    slo_s:
        Sojourn target used for the report's SLO-attainment column (and
        by the autoscaler's latency signal if one is attached).
    max_batch_size, max_wait_s:
        Micro-batcher triggers applied to every replica.
    cache_capacity, cache_lookup_s:
        Cluster-wide LRU result cache (``0`` disables).
    recover_warmup_s:
        Warm-up a *recovering* replica pays before taking traffic
        (freshly spawned replicas pay the autoscaler's configured cost).
    rng:
        Seed/generator for randomized policies (power-of-two-choices).
    classes:
        Optional :class:`~repro.serving.classes.ClassSet` enabling
        multi-tenant mode: every replica runs a worker-gated priority
        batcher, ``serve*`` requires per-request class codes, and the
        report carries per-class slices.
    scheduler:
        Multi-tenant flush discipline per replica: ``"priority"`` or
        ``"fifo"`` (the class-blind control arm).  Ignored without
        ``classes``.
    obs:
        Optional :class:`~repro.obs.observer.Observer`.  When set, every
        dispatched batch becomes a span, every crash/fault/timeout/
        retry/hedge/breaker-trip/scale event an instant span row, and
        the finished run is finalized into per-request spans, windowed
        metrics, and SLO burn rates.  Observers are single-use — like
        the cluster itself, one per trace.  ``None`` (default) records
        nothing; the hooks cost one ``is None`` test each.
    prof:
        Optional :class:`~repro.obs.prof.PhaseProfiler` attributing
        **wall-clock** time to engine phases (warmup, event_loop,
        ingest, batch_form, dispatch, complete, events, inference,
        report).  The ingest phase is scoped per burst of consecutive
        arrivals, not per arrival, so profiling stays inside the 1.15x
        overhead gate at a million requests.  ``None`` falls back to
        the process-global profiler (``REPRO_PROF=1``), else profiling
        is off and each scope costs one ``is None`` test.
    """

    def __init__(
        self,
        backends: list[InferenceBackend],
        policy: str | LoadBalancer = "power-of-two",
        admission: AdmissionController | None = None,
        autoscaler: Autoscaler | None = None,
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        slo_s: float = 0.05,
        max_batch_size: int = 16,
        max_wait_s: float = 0.004,
        cache_capacity: int = 0,
        cache_lookup_s: float = 2e-5,
        recover_warmup_s: float = 0.0,
        rng: np.random.Generator | int | None = 0,
        classes: ClassSet | None = None,
        scheduler: str = "priority",
        obs=None,
        prof=None,
    ) -> None:
        if not backends:
            raise ValueError("a cluster needs at least one replica backend")
        if not slo_s > 0:  # false for NaN too
            raise ValueError(f"slo_s must be positive, got {slo_s}")
        if not recover_warmup_s >= 0:
            raise ValueError(f"recover_warmup_s must be >= 0, got {recover_warmup_s}")
        if cache_capacity < 0:
            raise ValueError(f"cache_capacity must be >= 0, got {cache_capacity}")
        if not cache_lookup_s >= 0:
            raise ValueError(f"cache_lookup_s must be >= 0, got {cache_lookup_s}")
        if len({bool(b.oracle) for b in backends}) > 1:
            raise ValueError(
                "cannot mix oracle and live backends in one fleet: the request "
                "stream is either sample ids or raw images"
            )
        if faults is not None and faults.max_replica_id() >= len(backends):
            raise ValueError(
                f"fault plan targets replica {faults.max_replica_id()}, "
                f"but the initial fleet has only {len(backends)} replicas"
            )
        if scheduler not in ("priority", "fifo"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        if (
            classes is None
            and admission is not None
            and getattr(admission, "classes", None) is not None
        ):
            raise ValueError(
                "WeightedFairAdmission requires Cluster(classes=...) so the "
                "fleet and the admission controller grade the same classes"
            )
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.faults = faults
        self.resilience = resilience
        self._degrader: DegradationController | None = None
        if resilience is not None:
            # Breaker-driven ejection lives inside the balancer: wrap
            # whatever policy the caller picked (unless they already
            # passed a ResilientBalancer of their own).
            if not isinstance(self.policy, ResilientBalancer):
                self.policy = ResilientBalancer(self.policy, resilience.breaker)
            if resilience.degradation is not None:
                self._degrader = DegradationController(resilience.degradation)
        # Static per-replica blackhole windows: responses computed inside
        # one are withheld until it heals (the balancer keeps routing —
        # only timeouts can tell a partitioned replica from a slow one).
        self._partitions = faults.partition_intervals() if faults is not None else {}
        self._fault_rng = np.random.default_rng(faults.seed if faults is not None else 0)
        self._n_batch_failures = 0
        self.admission = admission
        self.autoscaler = autoscaler
        self.slo_s = float(slo_s)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.cache_capacity = int(cache_capacity)
        self.cache_lookup_s = float(cache_lookup_s)
        self.recover_warmup_s = float(recover_warmup_s)
        self.rng = as_generator(rng)
        self.classes = classes
        self.scheduler = scheduler
        self.obs = obs
        # Wall-clock phase attribution: an explicit profiler wins, else
        # the process-global one (REPRO_PROF=1), else disabled.
        self.prof = prof if prof is not None else current_profiler()
        self._last_trips = 0
        self.replicas = [
            Replica(i, b, max_batch_size, max_wait_s, classes=classes, scheduler=scheduler)
            for i, b in enumerate(backends)
        ]
        self.n_replicas_start = len(self.replicas)
        self.peak_replicas = len(self.replicas)
        self._books: _Books | None = None
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        # (completion_s, replica_id) per committed batch; see _advance.
        self._completions: list[tuple[float, int]] = []
        # Lower bound on every replica's next_deadline_s(); see
        # _flush_deadlines_until.
        self._deadline_floor = -math.inf
        self._refresh_up()
        self._served = False

    # ------------------------------------------------------------------ #
    # signals (shared with the autoscaler)
    # ------------------------------------------------------------------ #
    def live_replicas(self) -> list[Replica]:
        """Replicas currently accruing cost (UP, WARMING, or DRAINING)."""
        return [r for r in self.replicas if r.state != ReplicaState.DOWN]

    def up_replicas(self) -> list[Replica]:
        """Replicas the balancer may currently dispatch to.

        The list is cached and shared between calls — it is rebuilt
        only when a replica enters or leaves UP — so callers must treat
        it as read-only.
        """
        return self._up

    def _refresh_up(self) -> None:
        """Rebuild the cached UP list after a replica entered or left UP.

        Only warm-up completion, drain start and crash change UP
        membership (provisioning moves DOWN to WARMING), so only those
        handlers, construction and the start of a replay rebuild it.
        """
        self._up = [r for r in self.replicas if r.available]

    def outstanding_total(self, now: float) -> int:
        """Cluster-wide admitted-but-incomplete request copies (incl. stranded).

        Counts copies, like :meth:`Replica.outstanding`: a hedged request
        counts twice while both copies live.  Each replica contributes
        its queue length plus its cached in-flight count; every batch
        due by ``now`` but not yet purged still has its completion-heap
        entry, so an empty-or-later heap head proves those counts exact,
        and only a read ahead of the clock re-sums the batches.
        """
        books = self._books
        total = len(books.stranded) if books else 0
        due = self._completions
        if due and due[0][0] <= now:
            return total + sum(r.outstanding(now) for r in self.replicas)
        for r in self.replicas:
            total += len(r.batcher) + r.n_in_flight
        return total

    def recent_p95(
        self, now: float, window_s: float, cls: int | None = None
    ) -> float | None:
        """p95 sojourn of completions in ``(now - window_s, now]``.

        This is the autoscaler's latency signal: the per-completion
        window is only recorded while an autoscaler is attached (a
        million-request trace should not pay for a signal nobody
        reads), so without one this returns ``None`` — as it does when
        the window is genuinely empty.  Completions cancelled by a
        later crash are skipped (the request's final record no longer
        matches the one logged at dispatch).  ``cls`` restricts the
        window to one request class — the autoscaler's per-class signal
        (:attr:`~repro.cluster.autoscaler.AutoscalerConfig.signal_class`).
        """
        books = self._books
        if books is None:
            return None
        arrival = books.log.arrival_s
        final = books.log.completion_s
        req_class = books.log.req_class
        sojourn = [
            t - arrival[idx]
            for t, idx in books.completions
            if now - window_s < t <= now
            and final[idx] == t
            and (cls is None or req_class[idx] == cls)
        ]
        if not sojourn:
            return None
        (p95,) = latency_percentiles(np.asarray(sojourn), (95.0,))
        return p95

    # ------------------------------------------------------------------ #
    # autoscaler hooks
    # ------------------------------------------------------------------ #
    def spawn_replica(
        self, backend: InferenceBackend, now: float, warmup_s: float
    ) -> Replica:
        """Provision a fresh replica; it takes traffic after ``warmup_s``."""
        if bool(backend.oracle) != bool(self.replicas[0].backend.oracle):
            raise ValueError(
                "cannot mix oracle and live backends in one fleet: the "
                "autoscaler's spawn_backend must match the initial replicas "
                "(wrap it with repro.sim.oracle_backend in oracle mode)"
            )
        replica = Replica(
            len(self.replicas),
            backend,
            self.max_batch_size,
            self.max_wait_s,
            state=ReplicaState.DOWN,
            classes=self.classes,
            scheduler=self.scheduler,
        )
        self.replicas.append(replica)
        replica.provision(now)
        self._push(now + warmup_s, _EV_UP, (replica.replica_id, replica.generation))
        self.peak_replicas = max(self.peak_replicas, len(self.live_replicas()))
        return replica

    def drain_replica(self, replica: Replica, now: float) -> None:
        """Stop routing to ``replica``; it finishes its queue, then goes DOWN."""
        replica.start_drain(now)
        self._refresh_up()

    # ------------------------------------------------------------------ #
    # serving loop
    # ------------------------------------------------------------------ #
    def serve(
        self,
        images: np.ndarray,
        arrival_s: np.ndarray,
        labels: np.ndarray | None = None,
        scenario: str = "trace",
        request_classes: np.ndarray | None = None,
    ) -> ClusterReport:
        """Replay one arrival trace across the fleet and report.

        Mirrors :meth:`repro.serving.Server.serve`: ``images[i]`` arrives
        at ``arrival_s[i]`` (non-decreasing), ``labels`` adds genuine
        served accuracy, ``request_classes`` (multi-tenant mode) gives
        each request its class code.  The report additionally carries
        fleet-only columns — shed rate, SLO attainment, replica-seconds,
        availability, retries.
        """
        report, _ = self.serve_log(images, arrival_s, labels, scenario, request_classes)
        return report

    def serve_detailed(
        self,
        images: np.ndarray,
        arrival_s: np.ndarray,
        labels: np.ndarray | None = None,
        scenario: str = "trace",
        request_classes: np.ndarray | None = None,
    ) -> tuple[ClusterReport, list[Request]]:
        """:meth:`serve`, additionally returning per-request records.

        Same contract as :meth:`repro.serving.Server.serve_detailed`:
        the request list lets a fronting tier (the edge side of
        :mod:`repro.offload`) continue each request's timeline after the
        fleet answered it.  Prefer :meth:`serve_log` when the array view
        suffices.
        """
        report, log = self.serve_log(images, arrival_s, labels, scenario, request_classes)
        return report, log.to_requests()

    def serve_log(
        self,
        images: np.ndarray,
        arrival_s: np.ndarray,
        labels: np.ndarray | None = None,
        scenario: str = "trace",
        request_classes: np.ndarray | None = None,
    ) -> tuple[ClusterReport, RequestLog]:
        """:meth:`serve`, additionally returning the SoA request log."""
        if self._served:
            raise RuntimeError(
                "a Cluster replays one trace (replica billing is per-run); "
                "build a fresh Cluster for the next trace"
            )
        self._served = True
        images, arrival_s = validate_trace(images, arrival_s)
        if self.classes is not None and request_classes is None:
            raise ValueError(
                "Cluster(classes=...) requires request_classes in serve*()"
            )
        if request_classes is not None and self.classes is None:
            # Convenience: codes without an explicit ClassSet use the
            # default interactive/standard/batch mix — replicas must be
            # rebuilt so their batchers are class-aware.
            self.classes = DEFAULT_CLASSES
            for r in self.replicas:
                r.classes = self.classes
                r.scheduler = self.scheduler
                r.__post_init__()
        codes = (
            self.classes.validate_codes(request_classes, arrival_s.shape[0])
            if request_classes is not None
            else None
        )
        oracle = self.replicas[0].backend.oracle

        prof = self.prof
        if prof is not None:
            prof.start("serve")
            prof.start("warmup")
        for replica in self.replicas:
            if not oracle:
                replica.backend.warmup(
                    min(self.max_batch_size, images.shape[0]),
                    sample_shape=images.shape[1:],
                )
            # The initial fleet starts its meter at trace start, so
            # replica-seconds are comparable across traces whatever
            # timestamp the trace happens to begin at.
            if replica.up_since_s == 0.0 and replica.up_seconds == 0.0:
                replica.up_since_s = float(arrival_s[0])
        if prof is not None:
            prof.stop()  # warmup

        keys = request_keys(images, oracle) if self.cache_capacity > 0 else None
        books = _Books(
            log=RequestLog(arrival_s),
            images=images,
            keys=keys,
            cache=LRUResultCache(self.cache_capacity),
            track_completions=self.autoscaler is not None,
        )
        if codes is not None:
            books.log.req_class[:] = codes
            if self.admission is not None:
                # Per-class outstanding counters feed weighted-fair
                # admission; settled lazily at each admission decision.
                books.class_outstanding = np.zeros(len(self.classes), dtype=np.int64)
                books.class_counted = np.zeros(len(books.log), dtype=bool)
        if self.resilience is not None:
            n_req = len(books.log)
            books.attempt = np.zeros(n_req, dtype=np.int64)
            books.pending = np.zeros(n_req, dtype=np.int32)
            books.drop = np.zeros(n_req, dtype=np.int32)
        self._books = books
        self._heap = []
        self._seq = 0
        self._completions = []
        self._deadline_floor = -math.inf
        self._refresh_up()
        if self.faults is not None:
            # Plan order (already sorted with explicit tie ranks) becomes
            # heap insertion order, so same-timestamp faults replay
            # deterministically via the sequence number.
            for fault in self.faults.faults:
                if fault.kind == CRASH:
                    self._push(fault.time_s, _EV_CRASH, fault.replica_id)
                elif fault.kind == RECOVER:
                    self._push(fault.time_s, _EV_RECOVER, fault.replica_id)
                else:
                    self._push(fault.time_s, _EV_FAULT, fault)
        if self.autoscaler is not None:
            self._push(
                float(arrival_s[0]) + self.autoscaler.config.interval_s, _EV_TICK, None
            )

        # Arrivals stream from the sorted trace via a cursor merged
        # against the event heap: heap events win ties (every heap kind
        # sorts before _EV_ARRIVAL, matching the old all-in-heap order).
        arrivals = arrival_s.tolist()
        n = len(arrivals)
        heap = self._heap
        cursor = 0
        # The ingest phase is scoped per *burst* — a run of consecutive
        # arrivals uninterrupted by heap events — not per arrival: at a
        # million requests, per-arrival scope pairs would cost more than
        # every other phase combined (~370 ns each), while bursts keep
        # the pair count near the heap-event count.  Counts are bursts;
        # the burst boundaries are virtual-time-ordered, so the tree
        # stays deterministic.
        ingesting = False
        if prof is not None:
            prof.start("event_loop")
        while cursor < n or heap:
            next_arrival = arrivals[cursor] if cursor < n else math.inf
            if heap and heap[0][0] <= next_arrival:
                if ingesting:
                    prof.stop()  # ingest: the burst ends at a heap event
                    ingesting = False
                self._flush_deadlines_until(heap[0][0])
                now, kind, _, payload = heapq.heappop(heap)
                self._advance(now)
                if prof is not None:
                    prof.start("events")
                if kind == _EV_UP:
                    self._handle_up(payload, now)
                elif kind == _EV_CRASH:
                    self._handle_crash(payload, now)
                elif kind == _EV_RECOVER:
                    self._handle_recover(payload, now)
                elif kind == _EV_FAULT:
                    self._handle_fault(payload)
                elif kind == _EV_TIMEOUT:
                    self._handle_timeout(payload, now)
                elif kind == _EV_RETRY:
                    self._handle_retry(payload, now)
                elif kind == _EV_HEDGE:
                    self._handle_hedge(payload, now)
                elif kind == _EV_TICK:
                    self._handle_tick(now, arrivals_left=n - cursor)
                if prof is not None:
                    prof.stop()  # events
            else:
                if prof is not None and not ingesting:
                    prof.start("ingest")
                    ingesting = True
                self._flush_deadlines_until(next_arrival)
                self._advance(next_arrival)
                self._handle_arrival(cursor, next_arrival)
                cursor += 1
        if ingesting:
            prof.stop()  # ingest
        self._flush_deadlines_until(math.inf)
        self._advance(math.inf)
        if prof is not None:
            prof.stop()  # event_loop
            prof.start("inference")

        self._fill_predictions(books)
        if prof is not None:
            prof.stop()  # inference
            prof.start("report")
        report = self._report(books, arrival_s, labels, scenario)
        if self.obs is not None:
            self.obs.finalize(books.log, classes=self.classes, slo_s=self.slo_s)
        if prof is not None:
            prof.stop()  # report
            prof.stop()  # serve
        return report, books.log

    # ------------------------------------------------------------------ #
    # event plumbing
    # ------------------------------------------------------------------ #
    def _push(self, time_s: float, kind: int, payload) -> None:
        heapq.heappush(self._heap, (time_s, kind, self._seq, payload))
        self._seq += 1

    def _advance(self, now: float) -> None:
        """Purge the replicas whose batches complete by ``now``.

        Every committed batch left a ``(completion_s, replica_id)`` entry
        on the completion heap; the due entries name the replicas to
        purge.  They are purged in ascending id order (batches within a
        replica in in-flight order), so completions are judged, logged
        and fed to the breakers in one fixed order whatever order they
        fell due in.  Entries orphaned by a crash purge nothing.

        A DRAINING replica goes DOWN inside the purge that empties it
        (``start_drain`` finalizes an already-empty one itself); the one
        drain that ends without a purge — a flush whose copies were all
        cancelled — re-arms the replica with a ``-inf`` entry.

        With faults/resilience in play, purge is also where responses
        are *judged*: a failed batch loses its requests (naive) or
        schedules their retries (resilient); a successful batch wins
        only for requests whose attempt token still matches — late
        responses of cancelled attempts are dropped here, which is the
        "no response after cancellation" invariant.
        """
        heap = self._completions
        if not heap or heap[0][0] > now:
            return
        due = {heapq.heappop(heap)[1]}
        while heap and heap[0][0] <= now:
            due.add(heapq.heappop(heap)[1])
        finished = self._books.finished
        plain = self.resilience is None and self.faults is None
        for replica_id in sorted(due):
            replica = self.replicas[replica_id]
            done = replica.purge(now)
            if not done:
                continue
            prof = self.prof
            if prof is not None:
                prof.start("complete")
            if plain:
                for batch in done:
                    finished.append((replica, batch))
            else:
                for batch in done:
                    if batch.failed:
                        self._n_batch_failures += 1
                        self._judge_failure(replica, batch, now)
                    elif self.resilience is not None:
                        self._judge_success(replica, batch)
                        finished.append((replica, batch))
                    else:
                        finished.append((replica, batch))
            if prof is not None:
                prof.stop()  # complete

    def _flush_deadlines_until(self, limit_s: float) -> None:
        """Service every batcher deadline that fires by ``limit_s``.

        Returns at once while ``limit_s`` is below the deadline floor, a
        lower bound on every replica's :meth:`Replica.next_deadline_s`:
        no flush can be due, so the O(replicas) scan is skipped.  Each
        completed scan sets the floor to the minimum it found, and
        ``_route_to`` lowers it to the routed replica's deadline after
        each add and the flush the add may trigger — an add is the only
        way a replica's deadline falls — so every flush still fires at
        the same instant and in the same order.
        """
        if limit_s < self._deadline_floor:
            return
        while True:
            best = None
            best_deadline = math.inf
            for replica in self.replicas:
                deadline = replica.next_deadline_s()
                if deadline < best_deadline:
                    best = replica
                    best_deadline = deadline
            if best is None or best_deadline > limit_s:
                self._deadline_floor = best_deadline
                return
            prof = self.prof
            if prof is not None:
                prof.start("batch_form")
            self._advance(best_deadline)
            self._dispatch(best, best.batcher.flush(), best_deadline)
            if prof is not None:
                prof.stop()  # batch_form

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def _settle_class_events(self, now: float) -> None:
        """Fold completions up to ``now`` into the per-class counters.

        A heap entry only counts if the request's *final* completion
        still matches the entry (a crash since dispatch reset it) and it
        has not been counted before (a retry that happens to land on the
        cancelled batch's exact timestamp must not double-decrement).
        """
        books = self._books
        events = books.class_events
        completion = books.log.completion_s
        req_class = books.log.req_class
        counted = books.class_counted
        while events and events[0][0] <= now:
            t, idx = heapq.heappop(events)
            if completion[idx] == t and not counted[idx]:
                books.class_outstanding[req_class[idx]] -= 1
                counted[idx] = True

    def _handle_arrival(self, i: int, now: float) -> None:
        books = self._books
        log = books.log
        if books.keys is not None:
            visibility = books.visibility
            completion = log.completion_s
            while visibility and visibility[0][0] <= now:
                t, src, key = heapq.heappop(visibility)
                if completion[src] == t:  # not crash-cancelled
                    books.cache.put(key, src)
            hit = books.cache.get(books.keys[i])
            if hit is not None:
                log.route[i] = ROUTE_CACHED
                log.requested_route[i] = ROUTE_CACHED
                log.source_id[i] = int(hit)
                log.dispatch_s[i] = now  # answered on arrival — never queued
                done = now + self.cache_lookup_s
                completion[i] = done
                if books.track_completions:
                    books.completions.append((done, i))
                return
        if self._degrader is not None:
            live = [r.replica_id for r in self.replicas if r.state != ReplicaState.DOWN]
            mode = self._degrader.update(now, self.policy.open_fraction(live))
            if mode == MODE_SHED:
                log.route[i] = ROUTE_SHED
                log.requested_route[i] = ROUTE_SHED
                if self.obs is not None:
                    self.obs.on_shed(now)
                return
            if mode == MODE_DEGRADE:
                log.degraded[i] = True
        if self.admission is not None:
            cls = int(log.req_class[i])
            if books.class_outstanding is not None:
                self._settle_class_events(now)
            verdict = self.admission.decide_for(
                self.outstanding_total(now), cls, books.class_outstanding
            )
            if verdict == REJECT:
                log.route[i] = ROUTE_SHED
                log.requested_route[i] = ROUTE_SHED
                if self.obs is not None:
                    self.obs.on_shed(now)
                return
            if verdict == DEGRADE:
                log.degraded[i] = True
            else:
                assert verdict == ACCEPT
            if books.class_outstanding is not None:
                books.class_outstanding[cls] += 1
        self._route(i, now)

    def _handle_up(self, payload: tuple[int, int], now: float) -> None:
        replica_id, generation = payload
        replica = self.replicas[replica_id]
        if replica.generation != generation:
            return  # stale: the replica crashed and was re-provisioned since
        replica.mark_up(now)
        if replica.available:
            self._refresh_up()
            self.peak_replicas = max(self.peak_replicas, len(self.live_replicas()))
            stranded, self._books.stranded = self._books.stranded, []
            for idx in stranded:
                self._route(idx, now)

    def _handle_crash(self, replica_id: int, now: float) -> None:
        replica = self.replicas[replica_id]
        if replica.state == ReplicaState.DOWN:
            return
        if self.obs is not None:
            self.obs.on_event(_OBS_CRASH, now, replica_id)
        books = self._books
        log = books.log
        if self.resilience is None:
            lost = replica.crash(now)
            self._refresh_up()
            for idx in lost:
                self._scrub(idx)
                log.retries[idx] += 1
                self._route(idx, now)
            return
        # Resilient fleet: the queue may hold copies already cancelled by
        # a timeout/win (consume their drop markers instead of
        # re-routing), and in-flight batches carry attempt tokens —
        # stale attempts were retried elsewhere and must not re-route
        # again here.
        lost: list[int] = []
        for i in replica.batcher.drain() if replica.batcher else []:
            books.pending[i] -= 1
            if books.drop[i] > 0:
                books.drop[i] -= 1
                continue
            lost.append(i)
        for batch in replica.in_flight:
            for pos, i in enumerate(batch.indices):
                if books.attempt[i] == batch.tokens[pos]:
                    lost.append(i)
        replica.crash(now)
        self._refresh_up()
        seen: set[int] = set()
        for i in lost:
            if i in seen:
                continue
            seen.add(i)
            # Crash cancels every attempt of the request (a hedge twin
            # elsewhere dies with it) and re-routes instantly, matching
            # the naive engine's crash semantics.
            books.attempt[i] += 1
            if books.pending[i]:
                books.drop[i] += books.pending[i]
                books.pending[i] = 0
            self._scrub(i)
            log.retries[i] += 1
            self._route(i, now)

    def _handle_recover(self, replica_id: int, now: float) -> None:
        replica = self.replicas[replica_id]
        if replica.state != ReplicaState.DOWN:
            return
        if self.obs is not None:
            self.obs.on_event(_OBS_RECOVER, now, replica_id)
        replica.provision(now)
        self._push(now + self.recover_warmup_s, _EV_UP, (replica_id, replica.generation))

    def _handle_tick(self, now: float, arrivals_left: int = 0) -> None:
        books = self._books
        decision = self.autoscaler.tick(self, now)
        if decision is not None:
            logger.debug(
                "autoscaler decided %r at t=%.6fs (%d live replicas)",
                decision, now, len(self.live_replicas()),
            )
            if self.obs is not None:
                self.obs.on_event(_OBS_SCALE, now)
        settled = (
            not arrivals_left
            and not books.stranded
            and bool((books.log.done | (books.log.route == ROUTE_SHED)).all())
        )
        if settled:
            return
        # Reschedule only while progress is still possible: some other
        # event is pending (only one tick is ever queued and it was just
        # popped, so any heap entry is another kind), arrivals are still
        # streaming from the trace cursor, or a live replica holds queued
        # or in-flight work.  Otherwise (every replica crashed with no
        # recovery scheduled, or the unfinished requests were lost to
        # failed batches) the loop must drain so those requests end the
        # trace as unserved instead of ticking forever.
        if (
            self._heap
            or arrivals_left
            or any(r.in_flight or r.batcher for r in self.live_replicas())
        ):
            self._push(now + self.autoscaler.config.interval_s, _EV_TICK, None)

    # ------------------------------------------------------------------ #
    # faults + resilience
    # ------------------------------------------------------------------ #
    def _scrub(self, i: int) -> None:
        """Reset a request's log record to the never-served state."""
        log = self._books.log
        log.completion_s[i] = float("nan")
        log.dispatch_s[i] = float("nan")
        log.route[i] = ROUTE_BATCHED
        log.requested_route[i] = ROUTE_BATCHED
        log.batch_size[i] = 0
        log.replica_id[i] = -1

    def _handle_fault(self, fault) -> None:
        """Apply one typed fault-state change to its replica."""
        if self.obs is not None:
            self.obs.on_event(_OBS_FAULT, fault.time_s, fault.replica_id)
        replica = self.replicas[fault.replica_id]
        if fault.kind == SLOWDOWN:
            replica.slow_factor = fault.magnitude
        elif fault.kind == FLAKY:
            replica.flaky_p = fault.magnitude
        # PARTITION/HEAL act through the precomputed static intervals
        # (response deferral in _dispatch); no replica state to mutate.

    def _handle_timeout(self, payload: tuple[int, int, int], now: float) -> None:
        """A per-attempt timer fired: cancel the attempt, maybe retry."""
        i, token, replica_id = payload
        books = self._books
        if books.attempt[i] != token:
            return  # the attempt completed or was cancelled in time
        log = books.log
        log.timed_out[i] += 1
        books.attempt[i] += 1
        if books.pending[i]:
            books.drop[i] += books.pending[i]
            books.pending[i] = 0
        self._scrub(i)
        if self.obs is not None:
            self.obs.on_event(_OBS_TIMEOUT, now, replica_id, i)
        self.policy.observe(replica_id, now, ok=False)
        self._note_breaker(replica_id, now)
        retry = self.resilience.retry
        retries = int(log.retries[i])
        if retry.allows(retries):
            u = float(self._fault_rng.random())
            self._push(now + retry.delay_s(retries + 1, u), _EV_RETRY, i)

    def _handle_retry(self, i: int, now: float) -> None:
        """Backoff elapsed: dispatch the request's next attempt."""
        if self.obs is not None:
            self.obs.on_event(_OBS_RETRY, now, req=i)
        self._books.log.retries[i] += 1
        self._route(i, now)

    def _handle_hedge(self, payload: tuple[int, int, int], now: float) -> None:
        """Hedge delay elapsed with no response: race a second replica."""
        i, token, primary_id = payload
        books = self._books
        if books.attempt[i] != token:
            return  # already answered (or cancelled) — no hedge needed
        # The twin shares the primary's attempt token: whichever response
        # lands first wins and invalidates the other.  No twin is sent
        # when the primary's replica is the only routable one.
        if self._route_to(i, now, exclude=primary_id) is not None:
            books.log.hedged[i] = True
            if self.obs is not None:
                self.obs.on_event(_OBS_HEDGE, now, primary_id, i)

    def _judge_success(self, replica: Replica, batch: InFlightBatch) -> None:
        """A batch responded: finalize the log for still-live attempts.

        Requests whose attempt token moved on since dispatch (timed out,
        hedge-won elsewhere, crash-re-routed) drop their response here —
        a cancelled attempt can never overwrite its winner.
        """
        books = self._books
        log = books.log
        attempt = books.attempt
        decision = batch.decision
        size = len(batch.indices)
        for pos, i in enumerate(batch.indices):
            if attempt[i] != batch.tokens[pos]:
                # A cancelled attempt never feeds the breaker an outcome,
                # but it may have consumed a half-open probe slot at
                # choose time — release it so the breaker can't wedge.
                self.policy.void(replica.replica_id)
                continue
            attempt[i] += 1  # the win invalidates outstanding timers
            if books.pending[i]:  # cancel a hedge twin still queued
                books.drop[i] += books.pending[i]
                books.pending[i] = 0
            log.completion_s[i] = batch.completion_s
            log.dispatch_s[i] = batch.start_s
            log.batch_size[i] = size
            log.replica_id[i] = replica.replica_id
            if decision is not None:
                log.route[i] = ROUTE_EASY if decision.easy[pos] else ROUTE_HARD
            else:
                log.route[i] = ROUTE_BATCHED
            # One outcome per request, not per batch: probe accounting
            # must balance the per-request note_probe at choose time.
            self.policy.observe(
                replica.replica_id,
                batch.completion_s,
                ok=True,
                latency_s=batch.completion_s - batch.start_s,
            )

    def _judge_failure(
        self, replica: Replica, batch: InFlightBatch, now: float
    ) -> None:
        """A batch's response was a failure (flaky / unhealed partition).

        Naive fleets lose the requests outright; resilient ones feed the
        breaker and schedule backed-off retries within the budget.
        """
        books = self._books
        log = books.log
        resil = self.resilience
        if self.obs is not None:
            self.obs.on_event(EV_BATCH_FAIL, batch.completion_s, replica.replica_id)
        if resil is None:
            for i in batch.indices:
                if (
                    log.completion_s[i] == batch.completion_s
                    and log.replica_id[i] == replica.replica_id
                ):
                    self._scrub(i)
            return
        retry = resil.retry
        for pos, i in enumerate(batch.indices):
            if books.attempt[i] != batch.tokens[pos]:
                self.policy.void(replica.replica_id)
                continue
            books.attempt[i] += 1
            if books.pending[i]:
                books.drop[i] += books.pending[i]
                books.pending[i] = 0
            self._scrub(i)
            self.policy.observe(replica.replica_id, batch.completion_s, ok=False)
            self._note_breaker(replica.replica_id, batch.completion_s)
            retries = int(log.retries[i])
            if retry.allows(retries):
                u = float(self._fault_rng.random())
                delay = retry.delay_s(retries + 1, u)
                self._push(max(now, batch.completion_s + delay), _EV_RETRY, i)

    def _note_breaker(self, replica_id: int, now: float) -> None:
        """After an ok=False observation: did the breaker just trip?

        ``ResilientBalancer.n_trips`` is monotone, so a delta against
        the last seen total pins the trip to the failure that caused it
        — one DEBUG line and one instant span per trip.
        """
        policy = self.policy
        if not isinstance(policy, ResilientBalancer):
            return
        trips = policy.n_trips
        if trips > self._last_trips:
            self._last_trips = trips
            logger.debug(
                "circuit breaker tripped on replica %d at t=%.6fs (trip #%d)",
                replica_id, now, trips,
            )
            if self.obs is not None:
                self.obs.on_event(EV_BREAKER_TRIP, now, replica_id)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _route(self, i: int, now: float) -> None:
        replica = self._route_to(i, now)
        if replica is None:
            self._books.stranded.append(i)
            return
        resil = self.resilience
        if resil is not None:
            token = int(self._books.attempt[i])
            self._push(
                now + resil.timeout_s, _EV_TIMEOUT, (i, token, replica.replica_id)
            )
            if resil.hedge_delay_s is not None:
                self._push(
                    now + resil.hedge_delay_s,
                    _EV_HEDGE,
                    (i, token, replica.replica_id),
                )

    def _route_to(self, i: int, now: float, exclude: int | None = None) -> Replica | None:
        ups = self.up_replicas()
        if exclude is not None:
            ups = [r for r in ups if r.replica_id != exclude]
        if not ups:
            return None
        replica = self.policy.choose(ups, now, self.rng)
        replica.batcher.add(i, now, int(self._books.log.req_class[i]))
        if self._books.pending is not None:
            self._books.pending[i] += 1
        if replica.should_dispatch(now):
            self._dispatch(replica, replica.batcher.flush(), now)
        deadline = replica.next_deadline_s()
        if deadline < self._deadline_floor:
            self._deadline_floor = deadline
        return replica

    def _dispatch(self, replica: Replica, indices: list[int], flush_s: float) -> None:
        prof = self.prof
        if prof is None:
            return self._dispatch_impl(replica, indices, flush_s)
        prof.start("dispatch")
        self._dispatch_impl(replica, indices, flush_s)
        prof.stop()  # dispatch

    def _dispatch_impl(self, replica: Replica, indices: list[int], flush_s: float) -> None:
        books = self._books
        log = books.log
        if books.drop is not None and indices:
            # Cancelled-while-queued copies die at the flush boundary:
            # each drop marker swallows one queued copy of its request.
            drop, pending = books.drop, books.pending
            kept = []
            for i in indices:
                if drop[i] > 0:
                    drop[i] -= 1
                    # The dead copy consumed a choose() on this replica;
                    # release the probe slot it may have held.
                    self.policy.void(replica.replica_id)
                else:
                    pending[i] -= 1
                    kept.append(i)
            indices = kept
            if not indices:
                if replica.state == ReplicaState.DRAINING:
                    # No batch, so no completion entry: re-arm the replica
                    # so the next advance can finish its drain.
                    heapq.heappush(self._completions, (-math.inf, replica.replica_id))
                return
        # One list→array conversion reused by every fancy-index op.
        idx = np.asarray(indices, dtype=np.intp)
        decision = replica.backend.route(books.images[idx])
        if decision is not None:
            # The entropy gate's own verdict, recorded before any
            # admission degrade overrides it — per-class accuracy deltas
            # need the requested path, not just the served one.
            log.requested_route[idx] = np.where(decision.easy, ROUTE_EASY, ROUTE_HARD)
        else:
            log.requested_route[idx] = ROUTE_BATCHED
        if decision is not None and (
            self.admission is not None or self._degrader is not None
        ):
            degraded = log.degraded
            forced = [pos for pos, i in enumerate(indices) if degraded[i]]
            if forced:
                easy = decision.easy.copy()
                easy[forced] = True
                decision = RouteDecision(
                    easy=easy, entropy=decision.entropy, predictions=decision.predictions
                )
        n_hard = decision.n_hard if decision is not None else 0
        service = replica.backend.batch_service_s(len(indices), n_hard)
        if replica.slow_factor != 1.0:
            service *= replica.slow_factor
        start = max(flush_s, replica.worker_free_s)
        work_done = start + service
        completion = work_done
        failed = False
        spans = self._partitions.get(replica.replica_id)
        if spans is not None:
            for span_start, span_end in spans:
                if span_start <= work_done < span_end:
                    if math.isinf(span_end):
                        failed = True  # never heals: the response is lost
                    else:
                        completion = span_end  # withheld until the heal
                    break
        if replica.flaky_p > 0.0 and self._fault_rng.random() < replica.flaky_p:
            failed = True
        batch = InFlightBatch(
            indices=tuple(indices),
            decision=decision,
            start_s=start,
            completion_s=completion,
            work_done_s=work_done if completion != work_done else None,
            failed=failed,
            tokens=(
                tuple(int(books.attempt[i]) for i in indices)
                if books.attempt is not None
                else None
            ),
        )
        if self.obs is not None:
            # The waiting room this batch leaves behind: the batcher plus
            # committed copies that have not started, read before commit.
            self.obs.on_batch(
                start, completion, replica.replica_id, len(indices),
                queue_depth=replica.queue_depth(flush_s),
            )
        replica.commit(batch)
        heapq.heappush(self._completions, (completion, replica.replica_id))
        log.completion_s[idx] = completion
        log.dispatch_s[idx] = start
        log.batch_size[idx] = len(indices)
        log.replica_id[idx] = replica.replica_id
        if decision is not None:
            log.route[idx] = np.where(decision.easy, ROUTE_EASY, ROUTE_HARD)
        else:
            log.route[idx] = ROUTE_BATCHED
        if books.track_completions:
            for i in indices:
                books.completions.append((completion, i))
        if books.class_outstanding is not None:
            for i in indices:
                books.class_counted[i] = False
                heapq.heappush(books.class_events, (completion, i))
        if books.keys is not None:
            # Ties break on the request index so insertion order is
            # identical whatever the key type (pixel hash or sample id).
            keys = books.keys
            for i in indices:
                heapq.heappush(books.visibility, (completion, i, keys[i]))

    # ------------------------------------------------------------------ #
    # predictions + reporting
    # ------------------------------------------------------------------ #
    def _fill_predictions(self, books: _Books) -> None:
        """Run the surviving batches through their backends, in chunks.

        Each backend object's finished batches are packed, in the order
        they finished, into chunks of at most ``max_batch_size`` rows —
        the size ``serve_log`` warmed every live backend for, so no plan
        recompiles — and each chunk is one ``predict`` call with its
        members' routing decisions joined.  Predictions never feed back
        into the timeline (service time came from ``BatchTiming`` at
        dispatch) and every backend predicts per sample, so the chunking
        changes only the host time inference takes.

        Crash-cancelled batches never reach ``books.finished``.  In a
        resilient fleet a finished batch may still carry a cancelled
        attempt's rows (a late response, a lost hedge race).  Those rows
        are dropped before they join a chunk: a row is kept only when
        the request's final record names this batch's replica and
        completion time, so a late response is not predicted and cannot
        overwrite the winner's.  (Two copies a partition withholds on one
        replica until the same heal share that record; both are kept,
        and both predict the same image.)
        """
        log = books.log
        cap = self.max_batch_size
        guarded = self.resilience is not None
        if guarded:
            final_replica = log.replica_id.tolist()
            final_done = log.completion_s.tolist()
        chunks: dict[int, _Chunk] = {}
        for replica, batch in books.finished:
            n, keep = len(batch.indices), None
            if guarded:
                rid, done = replica.replica_id, batch.completion_s
                keep = [
                    pos
                    for pos, i in enumerate(batch.indices)
                    if final_replica[i] == rid and final_done[i] == done
                ]
                if not keep:
                    continue
                if len(keep) == n:
                    keep = None
                else:
                    n = len(keep)
            chunk = chunks.get(id(replica.backend))
            if chunk is None or len(chunk.rows) + n > cap:
                if chunk is not None:
                    chunk.predict(books.images, log.prediction)
                chunk = chunks[id(replica.backend)] = _Chunk(replica.backend)
            chunk.add(batch, keep)
        for chunk in chunks.values():
            chunk.predict(books.images, log.prediction)
        log.fill_cached_predictions()

    def _report(
        self,
        books: _Books,
        arrival_s: np.ndarray,
        labels: np.ndarray | None,
        scenario: str,
    ) -> ClusterReport:
        log = books.log
        served = log.done
        n_requests = len(log)
        n_served = int(served.sum())
        n_shed = log.route_count(ROUTE_SHED)
        n_unserved = n_requests - n_served - n_shed
        sojourn = log.sojourn_s[served]
        if n_served:
            last = float(log.completion_s[served].max())
            makespan = last - float(arrival_s[0])
            p50, p95, p99 = latency_percentiles(sojourn)
            mean_s, max_s = float(sojourn.mean()), float(sojourn.max())
            attained = int((sojourn <= self.slo_s).sum())
        else:
            makespan = float(arrival_s[-1] - arrival_s[0])
            p50 = p95 = p99 = mean_s = max_s = float("nan")
            attained = 0
        end_s = float(arrival_s[0]) + makespan
        for replica in self.replicas:
            replica.bill_to(end_s)
        replica_seconds = sum(r.up_seconds for r in self.replicas)
        busy = sum(r.busy_s for r in self.replicas)
        batch_sizes = [len(b.indices) for _, b in books.finished]
        span = float(arrival_s[-1] - arrival_s[0])
        accuracy = float("nan")
        if labels is not None and n_served:
            labels = np.asarray(labels)
            accuracy = float((log.prediction[served] == labels[served]).mean())
        return ClusterReport(
            policy=self.policy.name,
            scenario=scenario,
            n_requests=n_requests,
            n_served=n_served,
            n_shed=n_shed,
            n_unserved=n_unserved,
            n_degraded=int(log.degraded.sum()),
            n_retried=int((log.retries > 0).sum()),
            n_cached=log.route_count(ROUTE_CACHED),
            n_replicas_start=self.n_replicas_start,
            peak_replicas=self.peak_replicas,
            n_replicas_end=len(self.up_replicas()),
            duration_s=makespan,
            throughput_rps=n_served / makespan if makespan > 0 else float("inf"),
            arrival_rate_hz=(n_requests - 1) / span if span > 0 else float("inf"),
            mean_s=mean_s,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            max_s=max_s,
            mean_batch_size=float(np.mean(batch_sizes)) if batch_sizes else 0.0,
            slo_s=self.slo_s,
            slo_attainment=attained / n_requests if n_requests else 0.0,
            replica_seconds=float(replica_seconds),
            utilization=busy / replica_seconds if replica_seconds > 0 else 0.0,
            cache_hit_rate=books.cache.hit_rate,
            n_crashes=sum(r.n_crashes for r in self.replicas),
            scale_ups=self.autoscaler.n_scale_ups if self.autoscaler else 0,
            scale_downs=self.autoscaler.n_scale_downs if self.autoscaler else 0,
            accuracy=accuracy,
            class_reports=(
                per_class_reports(log, self.classes, labels)
                if self.classes is not None
                else ()
            ),
            n_timed_out=int((log.timed_out > 0).sum()),
            n_hedged=int(log.hedged.sum()),
            n_batch_failures=self._n_batch_failures,
            n_breaker_trips=(
                self.policy.n_trips
                if isinstance(self.policy, ResilientBalancer)
                else 0
            ),
        )
