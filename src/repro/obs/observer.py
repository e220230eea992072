"""The Observer facade: one handle the engines thread through their loops.

Engines don't want three telemetry objects and a pile of conventions —
they want one optional ``obs=`` parameter and a handful of cheap hooks.
:class:`Observer` is that handle.  It owns a
:class:`~repro.obs.spans.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, and (after finalize) an
:class:`~repro.obs.slo.SLOMonitor`, and exposes the event-loop
touchpoints:

* :meth:`on_batch` — a batch dispatched on a replica (span + queue
  depth + batch-size metrics);
* :meth:`on_event` — a discrete happening (crash, fault, timeout,
  retry, hedge, breaker trip, degrade-mode change, shed, scale);
* :meth:`on_leg` — an offload leg (edge gate, uplink, cloud, downlink).

The overhead contract is the design: every hook is a tuple append, so
a 1M-request run records only ~tens of thousands of sparse rows
in-loop, and :meth:`finalize` merely stashes the finished
``RequestLog`` columns.  Everything *derived* — latency histograms,
window series, burn rates and alerts, the dense per-request span tree
— is synthesized **vectorized** on first read of :attr:`metrics`,
:attr:`slo`, :attr:`alerts`, or :attr:`spans`.  Serve time pays only
for capture; the reader of the telemetry pays for the views.  With
``obs=None`` (the default everywhere) the engines skip the hooks
entirely — the disabled path costs one ``is not None`` test per
touchpoint.

Determinism: all inputs are virtual-clock values produced in event
order, so oracle and ``--live`` replays of the same scenario yield
field-for-field identical spans, metrics, and alerts.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.obs.spans import (
    EV_BATCH_FAIL,
    EV_BREAKER_TRIP,
    EV_SHED,
    EV_TIMEOUT,
    SPAN_NAMES,
    SpanLog,
    Tracer,
)

__all__ = ["Observer"]

#: Event kinds that count as failure *symptoms* for replica suspicion
#: scoring.  Deliberately excludes the injected fault/crash markers —
#: localization must work from what a production fleet could observe
#: (timeouts, failed batches, breaker trips), not from the fault plan.
_SYMPTOM_KINDS = frozenset((EV_TIMEOUT, EV_BATCH_FAIL, EV_BREAKER_TRIP))


class Observer:
    """Telemetry collector threaded through the simulation event loops.

    Parameters
    ----------
    window_s:
        Tumbling-window width for time series and burn rates.
    objective:
        SLO attainment objective (0.99 → 1% error budget).
    burn_threshold:
        Burn rate at/above which a window fires an :class:`SLOAlert`.
    """

    def __init__(
        self,
        window_s: float = 0.1,
        objective: float = 0.99,
        burn_threshold: float = 2.0,
    ) -> None:
        # The SLO monitor is built only when telemetry is first read, so
        # check its objective now (the registry below checks window_s).
        if not 0 < objective < 1:  # false for NaN too
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        self.window_s = float(window_s)
        self.objective = float(objective)
        self.burn_threshold = float(burn_threshold)
        self.tracer = Tracer()
        self._metrics = MetricsRegistry(window_s=self.window_s)
        self._slo: SLOMonitor | None = None
        # Per-replica tallies for telemetry-only localization:
        # replica id -> [n_batches, total_batch_seconds, n_fail_events].
        self.replica_stats: dict[int, list[float]] = {}
        # In-loop batch buffer: (start_s, end_s, replica, n, queue_depth)
        # per dispatch; all derived metrics come out vectorized on read.
        self._batch_meta: list[tuple[float, float, int, int, int]] = []
        # Vectorized batch columns preserved across flushes — the
        # resource timelines are derived from these after the run.
        self._batch_arrays: list[np.ndarray] = []
        self._final_args: tuple | None = None
        self._span_args: tuple | None = None
        self._span_log: SpanLog | None = None
        self._finalized = False
        self._derived = False

    # ------------------------------------------------------------------ hooks

    def on_batch(
        self,
        start_s: float,
        end_s: float,
        replica: int,
        n: int,
        queue_depth: int = -1,
    ) -> None:
        """One batch dispatched: two appends; metrics derive at finalize."""
        self.tracer.batch(start_s, end_s, replica)
        self._batch_meta.append((start_s, end_s, replica, n, queue_depth))

    def on_event(self, kind: int, t: float, replica: int = -1, req: int = -1) -> None:
        """One discrete event: instant span row + named counter + series."""
        self.tracer.event(kind, t, replica, req)
        name = SPAN_NAMES[kind]
        self._metrics.counter(f"events.{name}").inc()
        self._metrics.series(f"events.{name}.window").add(t)
        if replica >= 0 and kind in _SYMPTOM_KINDS:
            stats = self.replica_stats.setdefault(replica, [0, 0.0, 0])
            stats[2] += 1

    def on_leg(
        self, kind: int, req: int, start_s: float, end_s: float, replica: int = -1
    ) -> None:
        """One offload leg span (edge gate / uplink / cloud / downlink)."""
        self.tracer.leg(kind, req, start_s, end_s, replica)
        self._metrics.counter(f"legs.{SPAN_NAMES[kind]}").inc()

    def on_shed(self, t: float, n: int = 1) -> None:
        """Requests shed by admission/degradation (series + counter)."""
        self.tracer.event(EV_SHED, t)
        self._metrics.counter("shed").inc(n)
        self._metrics.series("shed.window").add(t, n)

    # -------------------------------------------------------------- finalize

    def finalize(self, log, classes=None, slo_s: float | None = None) -> None:
        """Seal the observer over a finished ``RequestLog``.

        This is O(1): it only stashes the log columns and the SLO
        configuration.  The derived telemetry — sojourn histogram + P²
        sketch, batch and throughput series, SLO burn windows and
        alerts, and the dense per-request span tree — is synthesized
        vectorized on first read of :attr:`metrics`, :attr:`slo`,
        :attr:`alerts`, or :attr:`spans`, so serve time pays only for
        capture.  Single-use: later calls no-op.
        """
        if self._finalized:
            return
        self._finalized = True
        self._final_args = (log, classes, slo_s)

    def _ensure_telemetry(self) -> None:
        """Derive all post-run telemetry from the stashed log (once)."""
        if self._derived or self._final_args is None:
            return
        self._derived = True
        log, classes, slo_s = self._final_args

        arrival = np.asarray(log.arrival_s, dtype=np.float64)
        completion = np.asarray(log.completion_s, dtype=np.float64)
        dispatch = getattr(log, "dispatch_s", None)
        if dispatch is not None:
            dispatch = np.asarray(dispatch, dtype=np.float64)
        replica = getattr(log, "replica_id", None)

        done = ~np.isnan(completion)
        sojourn = completion - arrival
        self._metrics.counter("requests").inc(int(arrival.shape[0]))
        self._metrics.counter("completed").inc(int(done.sum()))
        if done.any():
            self._metrics.histogram("sojourn_s").observe_many(sojourn[done])
            # Cap the sequential P² feed: a 20k strided subsample pins
            # the estimate to within a few percent of the full scan at
            # a fraction of the cost (and stays deterministic).
            samples = sojourn[done]
            step = max(1, samples.shape[0] // 20_000)
            sketch = self._metrics.sketch("sojourn_p99", q=0.99)
            sketch.observe_many(samples[::step])
            self._metrics.series("throughput").add_many(completion[done])
        self._flush_batch_meta()

        if classes is not None:
            self._slo = SLOMonitor.from_classes(
                classes,
                objective=self.objective,
                threshold=self.burn_threshold,
                window_s=self.window_s,
            )
        else:
            deadline = 0.05 if slo_s is None else float(slo_s)
            self._slo = SLOMonitor(
                {0: deadline},
                objective=self.objective,
                threshold=self.burn_threshold,
                window_s=self.window_s,
            )
        codes = getattr(log, "req_class", None) if classes is not None else None
        self._slo.observe_many(completion, sojourn, codes)
        # Scan before the span build so alert rows land in the span log.
        self._slo.scan(self.tracer)
        self._span_args = (arrival, completion, dispatch, replica)

    def _flush_batch_meta(self) -> None:
        """Vectorize the in-loop batch buffer into counters and series."""
        if not self._batch_meta:
            return
        meta = np.array(self._batch_meta, dtype=np.float64)
        self._batch_arrays.append(meta)
        starts, ends, reps, ns, depths = meta.T
        self._metrics.counter("batches").inc(meta.shape[0])
        self._metrics.counter("batched_requests").inc(int(ns.sum()))
        self._metrics.series("batch_size").add_many(starts, ns)
        self._metrics.series("batch_latency_s").add_many(starts, ends - starts)
        known = depths >= 0
        if known.any():
            self._metrics.series("queue_depth").add_many(starts[known], depths[known])
        rids = reps.astype(np.int64)
        lane = rids >= 0
        rids = rids[lane]
        n_by_rid = np.bincount(rids)
        s_by_rid = np.bincount(rids, weights=(ends - starts)[lane])
        for rid in np.nonzero(n_by_rid)[0].tolist():
            stats = self.replica_stats.setdefault(rid, [0, 0.0, 0])
            stats[0] += int(n_by_rid[rid])
            stats[1] += float(s_by_rid[rid])
        self._batch_meta.clear()

    def finalize_arrays(
        self, arrival_s, completion_s, slo_s: float | None = None
    ) -> None:
        """:meth:`finalize` for engines without a ``RequestLog``.

        The offload tier tracks per-request timing in plain arrays;
        this wraps them in the minimal duck-typed log and finalizes.
        """

        class _Cols:
            pass

        cols = _Cols()
        cols.arrival_s = arrival_s
        cols.completion_s = completion_s
        self.finalize(cols, slo_s=slo_s)

    # --------------------------------------------------------------- queries

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry (derives the post-run aggregates once)."""
        self._ensure_telemetry()
        return self._metrics

    @property
    def slo(self) -> SLOMonitor | None:
        """The SLO burn-rate monitor; ``None`` before :meth:`finalize`."""
        self._ensure_telemetry()
        return self._slo

    @property
    def spans(self) -> SpanLog | None:
        """The finalized span log; ``None`` before :meth:`finalize`.

        The dense tree (per-request root/queue/service rows plus the
        recorded sparse rows, parent-linked) is built vectorized on
        first access and cached — reading telemetry pays for it, serve
        time does not.
        """
        self._ensure_telemetry()
        if self._span_log is None and self._span_args is not None:
            self._span_log = self.tracer.finalize(*self._span_args)
        return self._span_log

    @property
    def alerts(self):
        """SLO alerts fired so far (empty before finalize)."""
        slo = self.slo
        return [] if slo is None else slo.alerts

    def batch_arrays(self) -> tuple[np.ndarray, ...] | None:
        """Batch metadata columns: (starts, ends, replicas, sizes, depths).

        The vectorized form of every ``on_batch`` call this run, in
        dispatch order; ``None`` when no batch was recorded.  This is
        the raw feed for :func:`repro.obs.timeline.build_timelines`.
        """
        self._flush_batch_meta()
        if not self._batch_arrays:
            return None
        meta = (
            self._batch_arrays[0]
            if len(self._batch_arrays) == 1
            else np.concatenate(self._batch_arrays, axis=0)
        )
        starts, ends, reps, ns, depths = meta.T
        return starts, ends, reps, ns, depths

    def timelines(self, window_s: float | None = None, cwnd_history=None):
        """Resource-utilization timelines derived from this run's data.

        Builds :class:`~repro.obs.timeline.ResourceTimelines` — per-
        replica busy fraction and queue depth from the batch metadata,
        cache hit rate from the finalized ``RequestLog``, uplink
        occupancy from any offload legs — with zero in-loop cost; the
        derivation is vectorized here at read time.  ``cwnd_history``
        (``(time_s, window)`` samples from a
        :class:`~repro.netsim.transport.SessionTransport`) adds the
        ``uplink.cwnd`` gauge next to the occupancy it explains.
        """
        from repro.obs.timeline import build_timelines

        log = self._final_args[0] if self._final_args is not None else None
        return build_timelines(
            self.window_s if window_s is None else window_s,
            batch_arrays=self.batch_arrays(),
            log=log,
            spans=self.spans,
            cwnd_history=cwnd_history,
        )

    def suspect_replicas(self, top: int = 1) -> list[int]:
        """Replicas ranked most-suspicious from telemetry alone.

        Score = failure-event count, tie-broken by mean batch latency —
        no fault-plan internals consulted.  Requires at least one
        recorded batch.
        """
        self._flush_batch_meta()
        scored = []
        for rid, (n_batches, total_s, n_fail) in self.replica_stats.items():
            mean_s = total_s / n_batches if n_batches else 0.0
            scored.append((n_fail, mean_s, rid))
        scored.sort(reverse=True)
        return [rid for _, _, rid in scored[:top]]

    def summary(self) -> dict[str, float]:
        """Flat scalar snapshot: metrics + span counts + worst burn."""
        out = self.metrics.snapshot()
        if self.spans is not None:
            out["spans"] = float(len(self.spans))
        if self.slo is not None:
            out["worst_burn"] = self.slo.worst_burn()
            out["alerts"] = float(len(self.slo.alerts))
        return out

    def chrome_trace(self, path, max_requests: int = 2000, counters: bool = True) -> int:
        """Export the finalized spans as Chrome trace-event JSON.

        ``max_requests`` caps the per-request lanes (see
        :meth:`SpanLog.to_chrome` — dropped-lane counts land in the
        file's metadata); ``counters=True`` (default) splices the
        resource timelines in as Perfetto counter tracks.
        """
        if self.spans is None:
            raise RuntimeError("call finalize() before exporting a trace")
        extra = self.timelines().counter_events() if counters else None
        return self.spans.to_chrome(path, max_requests=max_requests, counters=extra)
