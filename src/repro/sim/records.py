"""Structure-of-arrays request bookkeeping for the simulation engines.

The serving, cluster, and offload engines replay traces of up to millions
of requests.  :class:`RequestLog` is the one per-request record they
write: one row per request and one NumPy array per column, so the event
loop records a batch's outcome with one fancy-indexed assignment and
every report column is a vectorized reduction, not a Python loop.
Route outcomes are small-int codes (``ROUTE_BATCHED`` … ``ROUTE_SHED``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ROUTE_BATCHED",
    "ROUTE_CACHED",
    "ROUTE_EASY",
    "ROUTE_HARD",
    "ROUTE_SHED",
    "RequestLog",
]

#: Route codes, how a request was served: ran through the model inside
#: a micro-batch; answered from the LRU result cache; batched on the
#: early/lightweight path; batched and entropy-flagged onto the
#: full-exit path; rejected by admission control (never served).
#: ``ROUTE_BATCHED`` is 0, so a fresh route column holds it.
ROUTE_BATCHED, ROUTE_CACHED, ROUTE_EASY, ROUTE_HARD, ROUTE_SHED = range(5)


class RequestLog:
    """Per-request outcome arrays for one replayed trace.

    Row ``i`` is the ``i``-th submitted request.  Engines mutate the
    arrays in place while the virtual clock advances; reports reduce
    them without leaving NumPy.  Each column lists its dtype and, in
    brackets, the value a fresh log holds; a request that is never
    served keeps it in its time, prediction, batch and replica columns.

    Attributes
    ----------
    arrival_s:
        ``float64``: arrival time on the engine clock, seconds.
    completion_s:
        ``float64`` [NaN]: when the response left the server.
    dispatch_s:
        ``float64`` [NaN]: when the request left the queue for service
        (cache hits use their arrival time; they never queue).
    prediction:
        ``int64`` [-1]: the predicted class label.
    route:
        ``int8`` [``ROUTE_BATCHED``]: how the request was served, one
        of the ``ROUTE_*`` codes.
    requested_route:
        ``int8`` [``ROUTE_BATCHED``]: the route the routing/entropy gate
        asked for, before an admission-control degrade forced the easy
        path.  Equal to ``route`` wherever ``degraded`` is False.
    batch_size:
        ``int32`` [0]: size of the micro-batch the request was served
        in (0 for cache hits, which bypass the batcher).
    source_id:
        ``int64`` [-1]: for a cache hit, the row whose stored result
        answered it.
    replica_id:
        ``int32`` [-1]: the fleet replica that served the request
        (:mod:`repro.cluster`; a one-replica fleet's node is 0).
    degraded:
        ``bool`` [False]: the admission controller forced the request
        down the early/lightweight path under overload.
    retries:
        ``int32`` [0]: how many times the request was re-dispatched
        after a crash cancelled its batch or an attempt failed or
        timed out.
    req_class:
        ``int8`` [0]: request-class code, an index into the run's
        :class:`~repro.serving.classes.ClassSet` (0 in single-class
        runs).
    timed_out:
        ``int32`` [0]: how many of the request's attempts the
        per-attempt timeout of a :class:`repro.faults.ResilienceConfig`
        cancelled.
    hedged:
        ``bool`` [False]: a speculative second attempt was dispatched
        (the first response won; the loser was cancelled).
    """

    __slots__ = (
        "arrival_s",
        "completion_s",
        "dispatch_s",
        "prediction",
        "route",
        "requested_route",
        "batch_size",
        "source_id",
        "replica_id",
        "degraded",
        "retries",
        "req_class",
        "timed_out",
        "hedged",
    )

    def __init__(self, arrival_s: np.ndarray) -> None:
        n = arrival_s.shape[0]
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64)
        self.completion_s = np.full(n, np.nan)
        self.dispatch_s = np.full(n, np.nan)
        self.prediction = np.full(n, -1, dtype=np.int64)
        self.route = np.zeros(n, dtype=np.int8)  # ROUTE_BATCHED
        self.requested_route = np.zeros(n, dtype=np.int8)  # pre-degrade decision
        self.batch_size = np.zeros(n, dtype=np.int32)
        self.source_id = np.full(n, -1, dtype=np.int64)
        self.replica_id = np.full(n, -1, dtype=np.int32)
        self.degraded = np.zeros(n, dtype=bool)
        self.retries = np.zeros(n, dtype=np.int32)
        self.req_class = np.zeros(n, dtype=np.int8)
        self.timed_out = np.zeros(n, dtype=np.int32)
        self.hedged = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        return self.arrival_s.shape[0]

    @property
    def sojourn_s(self) -> np.ndarray:
        """Per-request time in system (NaN where never completed)."""
        return self.completion_s - self.arrival_s

    @property
    def done(self) -> np.ndarray:
        """Boolean mask of requests that completed."""
        return np.isfinite(self.completion_s)

    def route_count(self, code: int) -> int:
        """How many requests ended with the given route code."""
        return int((self.route == code).sum())

    def fill_cached_predictions(self) -> None:
        """Copy each cache hit's prediction from its source request.

        Sources are always dispatched (non-cached) requests, so one
        vectorized gather resolves every hit.
        """
        cached = np.flatnonzero(self.route == ROUTE_CACHED)
        if cached.size:
            self.prediction[cached] = self.prediction[self.source_id[cached]]
