"""Virtual-clock span tracing: request timelines as a vectorized SoA log.

A distributed trace answers the question aggregate counters cannot:
*where did this particular request's time go?*  This module records the
answer the same way :class:`~repro.sim.records.RequestLog` records
outcomes — as a structure-of-arrays :class:`SpanLog` whose columns are
NumPy vectors, so a million-request trace costs megabytes and vector
ops, not millions of Python objects.

Two kinds of rows share the log:

* **spans** — ``[start_s, end_s)`` intervals on the virtual clock
  (request lifetime, queue wait, batch execution, offload legs), with
  ``parent`` linking children to the owning request's root span;
* **instant events** — ``start_s == end_s`` markers for discrete
  happenings (crash, fault onset, timeout, retry, hedge, breaker trip,
  shed, scale decision, SLO alert, failed batch, link session and
  congestion-window cut).

The :class:`Tracer` is built for the ≤10%-overhead gate: event loops
append only *sparse* rows (one per dispatched batch, one per rare
fault/retry event), while the dense per-request spans (root, queue,
service) are synthesized **vectorized** at :meth:`Tracer.finalize` from
the already-populated ``RequestLog`` columns.  Determinism is free:
every timestamp comes off the virtual clock in event order, so oracle
and ``--live`` replays emit field-for-field identical logs.

:meth:`SpanLog.to_chrome` exports Chrome trace-event JSON that opens
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import gc
import json

import numpy as np

__all__ = [
    "SpanLog",
    "Tracer",
    "SPAN_NAMES",
    "SPAN_REQUEST",
    "SPAN_QUEUE",
    "SPAN_SERVICE",
    "SPAN_BATCH",
    "SPAN_EDGE_GATE",
    "SPAN_UPLINK",
    "SPAN_CLOUD",
    "SPAN_DOWNLINK",
    "EV_CRASH",
    "EV_RECOVER",
    "EV_FAULT",
    "EV_TIMEOUT",
    "EV_RETRY",
    "EV_HEDGE",
    "EV_BREAKER_TRIP",
    "EV_SHED",
    "EV_SCALE",
    "EV_ALERT",
    "EV_BATCH_FAIL",
    "EV_SESSION",
    "EV_CWND",
]

# Interval span kinds (end_s > start_s, except zero-width degenerates).
(
    SPAN_REQUEST,  # arrival → completion, the per-request root
    SPAN_QUEUE,  # arrival → dispatch (queue wait + batch formation)
    SPAN_SERVICE,  # dispatch → completion (model execution incl. batch)
    SPAN_BATCH,  # one dispatched batch on one replica/worker
    SPAN_EDGE_GATE,  # offload: local gate inference on the edge device
    SPAN_UPLINK,  # offload: edge → cloud transfer
    SPAN_CLOUD,  # offload: cloud-side service
    SPAN_DOWNLINK,  # offload: cloud → edge transfer
) = range(8)

# Instant event kinds (start_s == end_s).
(
    EV_CRASH,
    EV_RECOVER,
    EV_FAULT,
    EV_TIMEOUT,
    EV_RETRY,
    EV_HEDGE,
    EV_BREAKER_TRIP,
    EV_SHED,
    EV_SCALE,
    EV_ALERT,
    EV_BATCH_FAIL,
    EV_SESSION,  # netsim: link session (re)established or carrier-dropped
    EV_CWND,  # netsim: AIMD window cut (multiplicative decrease / timeout)
) = range(8, 21)

SPAN_NAMES = (
    "request",
    "queue",
    "service",
    "batch",
    "edge_gate",
    "uplink",
    "cloud",
    "downlink",
    "crash",
    "recover",
    "fault",
    "timeout",
    "retry",
    "hedge",
    "breaker_trip",
    "shed",
    "scale",
    "alert",
    "batch_fail",
    "session",
    "cwnd",
)

NO_PARENT = -1
NO_REQ = -1
NO_REPLICA = -1


class SpanLog:
    """Structure-of-arrays span/event log (the trace analogue of RequestLog).

    Columns (all length ``n``):

    - ``kind``    int16 — span/event kind code (see ``SPAN_NAMES``)
    - ``req``     int64 — owning request index, or ``-1``
    - ``start_s`` float64 — virtual-clock start
    - ``end_s``   float64 — virtual-clock end (== start for events)
    - ``replica`` int32 — replica/worker id, or ``-1``
    - ``parent``  int64 — row index of the parent span, or ``-1``
    """

    __slots__ = ("kind", "req", "start_s", "end_s", "replica", "parent")

    def __init__(self, kind, req, start_s, end_s, replica, parent) -> None:
        self.kind = np.asarray(kind, dtype=np.int16)
        self.req = np.asarray(req, dtype=np.int64)
        self.start_s = np.asarray(start_s, dtype=np.float64)
        self.end_s = np.asarray(end_s, dtype=np.float64)
        self.replica = np.asarray(replica, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int64)
        n = self.kind.shape[0]
        for name in self.__slots__:
            if getattr(self, name).shape != (n,):
                raise ValueError(f"SpanLog column {name!r} is not length {n}")

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    @classmethod
    def empty(cls) -> "SpanLog":
        """A zero-row log."""
        z: list = []
        return cls(z, z, z, z, z, z)

    def durations(self) -> np.ndarray:
        """``end_s - start_s`` per row (zero for instant events)."""
        return self.end_s - self.start_s

    def mask(self, kind: int) -> np.ndarray:
        """Boolean mask selecting rows of one kind."""
        return self.kind == kind

    def count(self, kind: int) -> int:
        """Number of rows of one kind."""
        return int(np.count_nonzero(self.kind == kind))

    def to_chrome(self, path, max_requests: int = 2000, counters: list | None = None) -> int:
        """Write Chrome trace-event JSON; returns the number of events.

        Layout: batch spans and instant events ride the replica lanes
        (``pid`` 0, ``tid`` = replica id); per-request spans ride
        request lanes (``pid`` 1, ``tid`` = request index).  Times are
        microseconds as the format requires.  Open the file in
        https://ui.perfetto.dev or ``chrome://tracing``.

        ``max_requests`` is the **request-lane cap**: only the first
        ``max_requests`` distinct request ids (in span order) get
        lanes, so a million-request run stays openable in a viewer.
        Pass a larger value (or ``float("inf")``) to keep more lanes.
        The cap is accounted for, not silent — the file's top-level
        ``"metadata"`` object records ``request_lanes_kept``,
        ``request_lanes_dropped``, and ``events_dropped``.

        ``counters`` splices extra pre-built trace events into the same
        file (Perfetto counter tracks from
        :meth:`~repro.obs.timeline.ResourceTimelines.counter_events`).
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "args": {"name": "replicas"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "requests"},
            },
        ]
        is_instant = self.kind >= EV_CRASH
        is_request_lane = (~is_instant) & (self.kind != SPAN_BATCH)
        kept_reqs: set[int] = set()
        dropped_reqs: set[int] = set()
        n_dropped_events = 0
        for i in range(len(self)):
            kind = int(self.kind[i])
            name = SPAN_NAMES[kind]
            ts = float(self.start_s[i]) * 1e6
            req = int(self.req[i])
            replica = int(self.replica[i])
            if is_instant[i]:
                events.append(
                    {
                        "name": name,
                        "ph": "i",
                        "s": "t",
                        "ts": ts,
                        "pid": 0,
                        "tid": max(replica, 0),
                        "args": {"req": req},
                    }
                )
                continue
            dur = (float(self.end_s[i]) - float(self.start_s[i])) * 1e6
            if is_request_lane[i]:
                if req not in kept_reqs:
                    if len(kept_reqs) >= max_requests:
                        dropped_reqs.add(req)
                        n_dropped_events += 1
                        continue
                    kept_reqs.add(req)
                pid, tid = 1, req
            else:
                pid, tid = 0, max(replica, 0)
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": pid,
                    "tid": tid,
                    "args": {"req": req, "replica": replica},
                }
            )
        if counters:
            events.extend(counters)
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                "max_requests": max_requests if max_requests != float("inf") else -1,
                "request_lanes_kept": len(kept_reqs),
                "request_lanes_dropped": len(dropped_reqs),
                "events_dropped": n_dropped_events,
            },
        }
        path = str(path)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return len(events)


class Tracer:
    """Accumulates sparse in-loop rows, synthesizes dense rows at finalize.

    Event loops call :meth:`batch`, :meth:`event`, and :meth:`leg` —
    each a single tuple append, cheap enough for the hot path.  At the
    end of a run, :meth:`finalize` fabricates the per-request root /
    queue / service spans **vectorized** from ``RequestLog`` columns
    (no per-request Python work during the simulation) and parent-links
    everything into one :class:`SpanLog`.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, int, float, float, int]] = []
        self._log: SpanLog | None = None

    @property
    def n_rows(self) -> int:
        """Sparse rows recorded so far (batches + events + legs)."""
        return len(self._rows)

    def batch(self, start_s: float, end_s: float, replica: int, req: int = NO_REQ):
        """Record one dispatched batch span on a replica lane."""
        self._rows.append((SPAN_BATCH, req, start_s, end_s, replica))

    def event(self, kind: int, t: float, replica: int = NO_REPLICA, req: int = NO_REQ):
        """Record an instant event (crash/fault/retry/alert/...)."""
        self._rows.append((kind, req, t, t, replica))

    def leg(self, kind: int, req: int, start_s: float, end_s: float, replica: int = NO_REPLICA):
        """Record an offload leg span (edge gate, uplink, cloud, downlink)."""
        self._rows.append((kind, req, start_s, end_s, replica))

    def finalize(
        self,
        arrival_s: np.ndarray,
        completion_s: np.ndarray,
        dispatch_s: np.ndarray | None = None,
        replica_id: np.ndarray | None = None,
    ) -> SpanLog:
        """Build the :class:`SpanLog`: synthesized request spans + recorded rows.

        ``arrival_s``/``completion_s`` (and optionally ``dispatch_s``,
        ``replica_id``) are ``RequestLog`` columns.  Requests with NaN
        completion (shed, cancelled, lost) get no spans — span
        conservation versus the log is "one root per completed row".
        Returns the same log on repeat calls (single-use semantics).
        """
        if self._log is not None:
            return self._log
        # The build allocates a few 100MB-scale arrays plus short-lived
        # lists; on a heap that just ran a million-request simulation a
        # gen-2 collection triggered mid-build costs more than the build
        # itself.  Nothing here creates cycles, so pause the collector.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._build(arrival_s, completion_s, dispatch_s, replica_id)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build(self, arrival_s, completion_s, dispatch_s, replica_id) -> SpanLog:
        arrival_s = np.asarray(arrival_s, dtype=np.float64)
        completion_s = np.asarray(completion_s, dtype=np.float64)
        done = ~np.isnan(completion_s)
        reqs = np.nonzero(done)[0]
        n_done = reqs.shape[0]

        kinds = [np.full(n_done, SPAN_REQUEST, dtype=np.int16)]
        req_col = [reqs.astype(np.int64)]
        starts = [arrival_s[done]]
        ends = [completion_s[done]]
        if replica_id is not None:
            rep_done = np.asarray(replica_id)[done].astype(np.int32)
        else:
            rep_done = np.full(n_done, NO_REPLICA, dtype=np.int32)
        replicas = [rep_done]
        parents = [np.full(n_done, NO_PARENT, dtype=np.int64)]

        # Root rows occupy [0, n_done); request i's root row is its rank
        # among completed requests — recoverable via searchsorted(reqs, i).
        if dispatch_s is not None:
            dispatch_s = np.asarray(dispatch_s, dtype=np.float64)
            d = dispatch_s[done]
            valid = ~np.isnan(d)
            child_req = reqs[valid]
            child_parent = np.nonzero(valid)[0].astype(np.int64)
            # queue: arrival → dispatch
            kinds.append(np.full(child_req.shape[0], SPAN_QUEUE, dtype=np.int16))
            req_col.append(child_req.astype(np.int64))
            starts.append(arrival_s[child_req])
            ends.append(d[valid])
            replicas.append(rep_done[valid])
            parents.append(child_parent)
            # service: dispatch → completion
            kinds.append(np.full(child_req.shape[0], SPAN_SERVICE, dtype=np.int16))
            req_col.append(child_req.astype(np.int64))
            starts.append(d[valid])
            ends.append(completion_s[child_req])
            replicas.append(rep_done[valid])
            parents.append(child_parent)

        # Recorded sparse rows: batches, events, offload legs.
        if self._rows:
            rows = self._rows
            r_kind = np.array([r[0] for r in rows], dtype=np.int16)
            r_req = np.array([r[1] for r in rows], dtype=np.int64)
            r_start = np.array([r[2] for r in rows], dtype=np.float64)
            r_end = np.array([r[3] for r in rows], dtype=np.float64)
            r_rep = np.array([r[4] for r in rows], dtype=np.int32)
            # Parent-link rows that carry a request id to that request's root.
            r_parent = np.full(r_req.shape[0], NO_PARENT, dtype=np.int64)
            has_req = r_req >= 0
            if n_done and has_req.any():
                pos = np.searchsorted(reqs, r_req[has_req])
                pos_ok = (pos < n_done) & (reqs[np.minimum(pos, n_done - 1)] == r_req[has_req])
                linked = np.where(pos_ok, pos, NO_PARENT)
                r_parent[has_req] = linked
            kinds.append(r_kind)
            req_col.append(r_req)
            starts.append(r_start)
            ends.append(r_end)
            replicas.append(r_rep)
            parents.append(r_parent)

        self._log = SpanLog(
            np.concatenate(kinds) if kinds else [],
            np.concatenate(req_col),
            np.concatenate(starts),
            np.concatenate(ends),
            np.concatenate(replicas),
            np.concatenate(parents),
        )
        return self._log
