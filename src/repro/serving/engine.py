"""The single-node serving engine: a one-replica fleet behind a smaller API.

:class:`Server` replays an arrival trace against one model backend on
a *virtual clock* — LRU result cache, micro-batcher (or, in
multi-tenant mode, a worker-gated priority batcher), one worker, and
the backend's easy/hard routing.

There is one serving kernel in this package, and it lives in
:class:`repro.cluster.Cluster`; a single node is the one-replica case.
Each ``serve*`` call builds a fresh ``Cluster([backend],
policy="round-robin")`` with this server's settings, replays the trace
through it, and re-reports the fleet result as a :class:`ServingReport`
— the single-node columns (batch-size histogram, easy/hard counts) are
derived from the request log.  The request log is the fleet's, so
served requests carry ``replica_id`` 0 (cache hits keep -1).  A node
with k workers is a k-replica ``Cluster``.

Everything observable lands in a :class:`ServingReport` (throughput,
sojourn percentiles, cache hit rate, batch-size histogram, accuracy)
that renders through :mod:`repro.eval.tables` and feeds the combined
experiment report.  A single ``Server`` never injects faults —
degraded-mode behaviour (slowdowns, partitions, timeouts, hedging,
circuit breakers) needs the fleet API of :mod:`repro.cluster` +
:mod:`repro.faults`, where there are replicas to fail over between.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.eval.tables import Table
from repro.serving.backends import InferenceBackend
from repro.serving.classes import ClassReport, ClassSet
from repro.serving.request import Request
from repro.sim.records import ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD, RequestLog

if TYPE_CHECKING:
    from repro.cluster.engine import Cluster, ClusterReport

__all__ = ["Server", "ServingReport", "comparison_table"]


@dataclass(frozen=True)
class ServingReport:
    """Everything one serving run produced, ready for tables and asserts."""

    backend: str
    scenario: str
    n_requests: int
    duration_s: float  # makespan: first arrival → last completion
    throughput_rps: float
    arrival_rate_hz: float
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float
    utilization: float  # busy fraction of the worker
    mean_batch_size: float
    batch_histogram: dict[int, int] = field(repr=False)
    n_easy: int = 0
    n_hard: int = 0
    n_cached: int = 0
    cache_hit_rate: float = 0.0
    accuracy: float = float("nan")
    #: Per-request-class slices (empty for single-class runs).
    class_reports: tuple[ClassReport, ...] = ()

    def summary(self) -> str:
        return (
            f"[{self.backend}/{self.scenario}] {self.throughput_rps:.0f} req/s | "
            f"p50 {self.p50_s * 1e3:.2f} ms | p99 {self.p99_s * 1e3:.2f} ms | "
            f"batch {self.mean_batch_size:.1f} | cache {self.cache_hit_rate:.0%} | "
            f"util {self.utilization:.0%}"
        )

    @property
    def hard_fraction(self) -> float:
        routed = self.n_easy + self.n_hard
        return self.n_hard / routed if routed else 0.0


def comparison_table(reports: list[ServingReport], title: str = "") -> Table:
    """Render several serving runs side by side (one row per backend)."""
    table = Table(
        headers=[
            "backend",
            "req/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "batch",
            "cache",
            "hard",
            "util",
            "acc",
        ],
        title=title,
    )
    for r in reports:
        table.add_row(
            r.backend,
            f"{r.throughput_rps:.0f}",
            f"{r.p50_s * 1e3:.2f}",
            f"{r.p95_s * 1e3:.2f}",
            f"{r.p99_s * 1e3:.2f}",
            f"{r.mean_batch_size:.1f}",
            f"{r.cache_hit_rate:.0%}",
            f"{r.hard_fraction:.0%}",
            f"{r.utilization:.0%}",
            "-" if np.isnan(r.accuracy) else f"{r.accuracy:.1%}",
        )
    return table


class Server:
    """Batched inference server over a virtual clock (one-replica facade).

    Parameters
    ----------
    backend:
        An :class:`~repro.serving.backends.InferenceBackend` (model +
        device timing), or a :class:`repro.sim.OracleBackend` wrapping
        one — in which case the request stream carries sample ids.
    max_batch_size, max_wait_s:
        Micro-batcher triggers (see :class:`~repro.serving.batcher.MicroBatcher`).
        ``max_wait_s=0`` disables batching (pure FIFO).
    cache_capacity:
        LRU result-cache entries; ``0`` disables caching.
    cache_lookup_s:
        Virtual cost of answering from the cache (hash + dictionary hit).
    classes:
        Optional :class:`~repro.serving.classes.ClassSet` enabling
        multi-tenant mode: ``serve*`` then requires per-request class
        codes, requests queue in a worker-gated
        :class:`~repro.serving.priority.PriorityBatcher`, and the
        report carries per-class slices.  ``None`` (default) keeps the
        single-class engine unchanged.
    scheduler:
        Multi-tenant flush discipline: ``"priority"`` (urgent classes
        board first, per-class wait caps) or ``"fifo"`` (class-blind
        control arm).  Ignored when ``classes`` is ``None``.
    obs:
        Optional :class:`~repro.obs.observer.Observer`, handed to the
        cluster: each dispatched batch is recorded as a span on replica
        lane 0 and the finished run is finalized into spans, metrics,
        and SLO burn rates.  Observers are single-use — pass a fresh one
        per ``serve*`` call.  ``None`` (default) records nothing.
    prof:
        Optional :class:`~repro.obs.prof.PhaseProfiler` attributing
        **wall-clock** (host CPU) time to the cluster's engine phases.
        ``None`` falls back to the process-global profiler
        (``REPRO_PROF=1``), else profiling is off.
    """

    def __init__(
        self,
        backend: InferenceBackend,
        max_batch_size: int = 32,
        max_wait_s: float = 0.005,
        cache_capacity: int = 0,
        cache_lookup_s: float = 2e-5,
        classes: ClassSet | None = None,
        scheduler: str = "priority",
        obs=None,
        prof=None,
    ) -> None:
        self.backend = backend
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.cache_capacity = int(cache_capacity)
        self.cache_lookup_s = float(cache_lookup_s)
        self.classes = classes
        self.scheduler = scheduler
        self.obs = obs
        self.prof = prof
        # Fail fast: the cluster's constructor validates every setting.
        self._cluster()

    def _cluster(self) -> Cluster:
        """A fresh one-replica cluster (clusters replay one trace each)."""
        # Deferred: repro.cluster itself imports repro.serving.
        from repro.cluster.engine import Cluster

        return Cluster(
            [self.backend],
            policy="round-robin",
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            cache_capacity=self.cache_capacity,
            cache_lookup_s=self.cache_lookup_s,
            classes=self.classes,
            scheduler=self.scheduler,
            obs=self.obs,
            prof=self.prof,
        )

    def serve(
        self,
        images: np.ndarray,
        arrival_s: np.ndarray,
        labels: np.ndarray | None = None,
        scenario: str = "trace",
        request_classes: np.ndarray | None = None,
    ) -> ServingReport:
        """Replay one arrival trace end to end and report.

        ``images[i]`` arrives at ``arrival_s[i]`` (non-decreasing).
        ``labels`` (optional) adds end-to-end accuracy to the report —
        predictions are the backend's genuine outputs (real inference,
        or the oracle table built from it), so this is a served-traffic
        accuracy, not a placeholder.  ``request_classes`` (multi-tenant
        mode) gives each request its class code; codes without
        ``classes`` use :data:`~repro.serving.classes.DEFAULT_CLASSES`.
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
    ) -> tuple[ServingReport, list[Request]]:
        """:meth:`serve`, additionally returning per-request records.

        The request list carries completion time, route, prediction, and
        batch size per request — what a composing tier (the edge side of
        :mod:`repro.offload`) needs to continue each request's timeline
        after the server answered.  Prefer :meth:`serve_log` when the
        array view suffices — it skips materializing request objects.
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
    ) -> tuple[ServingReport, RequestLog]:
        """:meth:`serve`, additionally returning the SoA request log."""
        fleet, log = self._cluster().serve_log(
            images, arrival_s, labels, scenario, request_classes
        )
        return self._report(fleet, log), log

    def _report(self, fleet: ClusterReport, log: RequestLog) -> ServingReport:
        """Re-report a one-replica fleet run in single-node columns."""
        # Every non-cached request records its batch's size, so a size-k
        # batch contributes k rows of value k.
        sizes, rows = np.unique(log.batch_size[log.route != ROUTE_CACHED], return_counts=True)
        histogram = {int(k): int(n) // int(k) for k, n in zip(sizes, rows)}
        # The remaining columns (latency, throughput, cache, accuracy,
        # per-class slices) mean the same thing on both reports.
        shared = {
            f.name: getattr(fleet, f.name)
            for f in fields(ServingReport)
            if hasattr(fleet, f.name)
        }
        return ServingReport(
            backend=self.backend.name,
            batch_histogram=histogram,
            n_easy=log.route_count(ROUTE_EASY),
            n_hard=log.route_count(ROUTE_HARD),
            **shared,
        )
