"""Simulation-native observability: spans, metrics, and SLO burn alerts.

The observability layer gives the virtual-clock serving stack the same
telemetry a production inference fleet has, without leaving the
simulation:

* :mod:`repro.obs.spans` — per-request lifecycle spans (queue wait,
  service, batch, offload legs) and discrete events (crashes, retries,
  breaker trips) in a vectorized SoA :class:`SpanLog`, exportable to
  Chrome trace-event JSON for Perfetto;
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms,
  P² streaming percentile sketches, and tumbling time-window series;
* :mod:`repro.obs.slo` — per-class SLO burn rates against
  :class:`~repro.serving.classes.RequestClass` deadlines with typed
  threshold alerts;
* :mod:`repro.obs.observer` — the :class:`Observer` facade engines
  accept as an optional ``obs=`` parameter;
* :mod:`repro.obs.prof` — wall-clock phase-attribution profiling of the
  cluster event loop (``prof=`` parameter): hierarchical phase timers
  with collapsed-stack/speedscope flamegraph export;
* :mod:`repro.obs.timeline` — virtual-time resource-utilization
  timelines (busy fraction, queue depth, cache hit rate, uplink
  occupancy) derived post-hoc and exportable as Perfetto counter
  tracks.

Everything is deterministic and virtual-clock native: the same scenario
replayed in oracle or ``--live`` mode produces field-for-field
identical telemetry.  Collection is default-off, in-loop hooks are
sparse appends, and the dense per-request artifacts are synthesized
vectorized at finalize — see ``docs/observability.md``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    WindowSeries,
)
from repro.obs.observer import Observer
from repro.obs.prof import PhaseProfiler, PhaseReport, PhaseStat
from repro.obs.slo import SLOAlert, SLOMonitor
from repro.obs.spans import SPAN_NAMES, SpanLog, Tracer
from repro.obs.timeline import ResourceTimelines, build_timelines

__all__ = [
    "Observer",
    "Tracer",
    "SpanLog",
    "SPAN_NAMES",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "P2Quantile",
    "WindowSeries",
    "SLOMonitor",
    "SLOAlert",
    "PhaseProfiler",
    "PhaseReport",
    "PhaseStat",
    "ResourceTimelines",
    "build_timelines",
]
