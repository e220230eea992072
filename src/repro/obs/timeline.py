"""Virtual-time resource timelines: utilization derived after the run.

The span lanes answer "what happened to request *i*"; the timelines
answer "how loaded was the *system* over time" — per-replica busy
fraction, queue depth, cache hit rate, uplink occupancy — each a
:class:`~repro.obs.metrics.WindowSeries` sampled on the virtual clock.

Everything here is derived **post-hoc** from telemetry the hot loops
already record (the Observer's batch metadata, the span log's offload
legs, the finished ``RequestLog``), so timelines add zero in-loop cost:
building them is a handful of vectorized passes at read time, the same
contract as the rest of :mod:`repro.obs`.

Export goes two ways: :meth:`ResourceTimelines.table` for asserts and
notebooks, and :meth:`ResourceTimelines.counter_events` for Perfetto —
Chrome trace-event ``"ph": "C"`` counter tracks that render as area
charts under the span lanes (``SpanLog.to_chrome(counters=...)``
splices them into the same file).
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.metrics import WindowSeries
from repro.obs.spans import SPAN_UPLINK, SpanLog

__all__ = ["ResourceTimelines", "build_timelines"]

#: Perfetto process id for the counter tracks ("resources" lane group);
#: pids 0/1 are the replica/request span lanes in ``SpanLog.to_chrome``.
COUNTER_PID = 2

#: How each timeline reduces a window to one counter value:
#: ``occupancy`` series carry busy-seconds sums (value = sum/window),
#: ``gauge`` series carry sampled levels (value = window mean).
_MODE_OCCUPANCY = "occupancy"
_MODE_GAUGE = "gauge"


class ResourceTimelines:
    """A named bag of utilization series over one simulated run.

    Instances come from :func:`build_timelines` (or
    ``Observer.timelines()``); each named series is a
    :class:`~repro.obs.metrics.WindowSeries` plus a reduction mode that
    says how a window becomes one plotted value.
    """

    def __init__(self, window_s: float) -> None:
        if not 0 < window_s < math.inf:  # false for NaN too
            raise ValueError(f"window_s must be positive and finite, got {window_s}")
        self.window_s = float(window_s)
        self._series: dict[str, tuple[WindowSeries, str]] = {}

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def names(self) -> tuple[str, ...]:
        """All timeline names, sorted."""
        return tuple(sorted(self._series))

    def series(self, name: str) -> WindowSeries:
        """The raw :class:`WindowSeries` behind one timeline."""
        return self._series[name][0]

    def _add(self, name: str, mode: str) -> WindowSeries:
        ws = WindowSeries(self.window_s)
        self._series[name] = (ws, mode)
        return ws

    def values(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(window_starts, values) for one timeline, reduction applied.

        Occupancy series divide each window's busy-seconds by the window
        width (a 1.0 means saturated); gauge series report the window
        mean of the sampled level.
        """
        ws, mode = self._series[name]
        t = ws.windows
        if mode == _MODE_OCCUPANCY:
            return t, ws.sums() / ws.window_s
        return t, ws.means()

    def table(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Every timeline as ``{name: (window_starts, values)}``."""
        return {name: self.values(name) for name in self.names()}

    def counter_events(self) -> list[dict]:
        """Chrome trace-event counter rows (``"ph": "C"``) for Perfetto.

        One metadata row names the ``pid`` 2 process "resources"; each
        timeline becomes a counter track with one event per non-empty
        window, value as produced by :meth:`values`.  Splice these into
        a span export with ``SpanLog.to_chrome(..., counters=...)`` or
        dump them standalone in a ``{"traceEvents": [...]}`` wrapper.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": COUNTER_PID,
                "args": {"name": "resources"},
            }
        ]
        for name in self.names():
            times, vals = self.values(name)
            for t, v in zip(times.tolist(), vals.tolist()):
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": t * 1e6,
                        "pid": COUNTER_PID,
                        "args": {"value": float(v)},
                    }
                )
        return events


def build_timelines(
    window_s: float = 0.1,
    *,
    batch_arrays: tuple[np.ndarray, ...] | None = None,
    log=None,
    spans: SpanLog | None = None,
) -> ResourceTimelines:
    """Derive utilization timelines from already-captured telemetry.

    Parameters
    ----------
    window_s:
        Tumbling-window width on the virtual clock.
    batch_arrays:
        ``(starts, ends, replicas, sizes, depths)`` columns over every
        dispatched batch (``Observer.batch_arrays()``).  Produces
        ``replica<r>.busy_frac`` (occupancy: batch-busy seconds per
        window over window width) and ``replica<r>.queue_depth`` (gauge:
        mean queue depth sampled at dispatch; depths < 0 mean
        "unknown" and are skipped).
    log:
        A finished ``RequestLog``; produces ``cache_hit_rate`` (gauge:
        fraction of arrivals in the window answered from cache) when the
        log carries ``route`` and ``arrival_s`` columns.
    spans:
        A finalized :class:`SpanLog`; produces ``uplink.occupancy``
        (occupancy over the offload uplink transfer legs) when uplink
        spans are present.

    All inputs are optional — pass what the run recorded; absent inputs
    simply contribute no series.
    """
    tl = ResourceTimelines(window_s)

    if batch_arrays is not None:
        starts, ends, reps, _ns, depths = (
            np.asarray(col, dtype=np.float64) for col in batch_arrays
        )
        busy = ends - starts
        rids = reps.astype(np.int64)
        for rid in np.unique(rids[rids >= 0]).tolist():
            mask = rids == rid
            tl._add(f"replica{rid}.busy_frac", _MODE_OCCUPANCY).add_many(
                starts[mask], busy[mask]
            )
            known = mask & (depths >= 0)
            if known.any():
                tl._add(f"replica{rid}.queue_depth", _MODE_GAUGE).add_many(
                    starts[known], depths[known]
                )

    if log is not None:
        route = getattr(log, "route", None)
        arrival = getattr(log, "arrival_s", None)
        if route is not None and arrival is not None:
            from repro.sim.records import ROUTE_CACHED

            arrival = np.asarray(arrival, dtype=np.float64)
            hits = (np.asarray(route) == ROUTE_CACHED).astype(np.float64)
            tl._add("cache_hit_rate", _MODE_GAUGE).add_many(arrival, hits)

    if spans is not None:
        up = np.asarray(spans.kind) == SPAN_UPLINK
        if up.any():
            s = np.asarray(spans.start_s, dtype=np.float64)[up]
            e = np.asarray(spans.end_s, dtype=np.float64)[up]
            tl._add("uplink.occupancy", _MODE_OCCUPANCY).add_many(s, e - s)

    return tl
