"""Streaming metrics for the simulation engines: counters to sketches.

A serving fleet is judged on *signals over time*, not only on end-of-run
aggregates: throughput per window, queue depth when the flash crowd
hits, the shed rate while a breaker is open.  This module is the metric
vocabulary the :class:`~repro.obs.observer.Observer` publishes into at
event-loop touchpoints:

* :class:`Counter` / :class:`Gauge` — monotone totals and last-value
  samples;
* :class:`Histogram` — fixed-bucket latency histogram with interpolated
  quantile queries, fed **vectorized** (``observe_many`` is one
  ``np.searchsorted`` + ``np.bincount`` per call), so a million sojourn
  samples cost milliseconds;
* :class:`P2Quantile` — the Jain–Chlamtac P² streaming percentile
  estimator: O(1) memory, no buckets to pre-size, for signals whose
  scale is unknown up front;
* :class:`WindowSeries` — tumbling time-window series on the virtual
  clock (count / sum / mean / last per window), the shape burn-rate
  monitors and future learned controllers consume;
* :class:`MetricsRegistry` — the named bag of all of the above that one
  engine run publishes into.

Everything here is deterministic: values arrive in virtual-clock event
order, windows are pure ``floor(t / window)`` bucketing, and no wall
clock or RNG is ever consulted — so oracle and ``--live`` replays
produce identical registries.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "P2Quantile",
    "WindowSeries",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing total (arrivals, sheds, retries...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the running total."""
        if n < 0:
            raise ValueError(f"counters only go up, got increment {n}")
        self.value += n


class Gauge:
    """A last-value-wins sample (current replica count, current mode...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the tracked quantity."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with interpolated quantile queries.

    ``edges`` are the interior bucket boundaries (ascending); values
    below ``edges[0]`` land in the first bucket, values at or above
    ``edges[-1]`` in the last.  Quantiles interpolate linearly inside
    the containing bucket (first/last buckets fall back to their finite
    edge), which bounds the error by the bucket width — the classic
    fixed-bucket trade every production metrics stack makes.

    Feeding is vectorized: :meth:`observe_many` is one
    ``np.searchsorted`` + ``np.bincount`` over the batch.
    """

    def __init__(self, edges) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or edges.shape[0] < 1:
            raise ValueError("Histogram needs at least one bucket edge")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = edges
        self.counts = np.zeros(edges.shape[0] + 1, dtype=np.int64)
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @classmethod
    def latency(cls, lo_s: float = 1e-4, hi_s: float = 60.0, per_decade: int = 24):
        """Log-spaced edges covering ``[lo_s, hi_s]`` — the sojourn default.

        ``per_decade`` buckets per factor-of-10 keeps the relative
        quantile error under ~10% across six decades of latency.
        """
        n = int(round(math.log10(hi_s / lo_s) * per_decade)) + 1
        return cls(np.logspace(math.log10(lo_s), math.log10(hi_s), n))

    @property
    def count(self) -> int:
        """Total number of observed values."""
        return int(self.counts.sum())

    def observe(self, value: float) -> None:
        """Record one value."""
        self.observe_many(np.asarray([value], dtype=np.float64))

    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch of values in one vectorized pass."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        idx = np.searchsorted(self.edges, values, side="right")
        self.counts += np.bincount(idx, minlength=self.counts.shape[0])
        self.sum += float(values.sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))

    @property
    def mean(self) -> float:
        n = self.count
        return self.sum / n if n else float("nan")

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        n = self.count
        if n == 0:
            return float("nan")
        target = q * n
        cum = np.cumsum(self.counts)
        b = int(np.searchsorted(cum, target, side="left"))
        b = min(b, self.counts.shape[0] - 1)
        lo = self.edges[b - 1] if b > 0 else self.min
        hi = self.edges[b] if b < self.edges.shape[0] else self.max
        inside = self.counts[b]
        if inside == 0 or hi <= lo:
            return float(min(max(lo, self.min), self.max))
        before = cum[b] - inside
        frac = (target - before) / inside
        return float(np.clip(lo + frac * (hi - lo), self.min, self.max))


class P2Quantile:
    """Jain–Chlamtac P² streaming quantile estimator (O(1) memory).

    Tracks one quantile ``q`` with five markers whose heights are
    adjusted by a piecewise-parabolic formula as values stream in — no
    buckets to pre-size, so it suits signals whose scale is unknown up
    front.  Accuracy is typically within a few percent of the exact
    sample quantile for unimodal distributions (pinned by the test
    suite against ``np.percentile``).
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        self.q = q
        self._init: list[float] = []
        # Marker heights, positions, and desired positions (after init).
        # Plain Python lists on purpose: the update touches five scalars
        # per value, where ndarray indexing overhead dominates the math.
        self._h = [0.0] * 5
        self._n = [0.0] * 5
        self._np = [0.0] * 5
        self._dn = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        self.count = 0

    def observe(self, value: float) -> None:
        """Feed one value into the estimator."""
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._init.append(value)
            if self.count == 5:
                self._init.sort()
                self._h = list(self._init)
                self._n = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._np = [0.0, 2 * self.q, 4 * self.q, 2 + 2 * self.q, 4.0]
            return
        h, n, np_, dn = self._h, self._n, self._np, self._dn
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        elif value < h[1]:
            k = 0
        elif value < h[2]:
            k = 1
        elif value < h[3]:
            k = 2
        else:
            k = 3
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            np_[i] += dn[i]
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                d = 1.0 if d >= 1 else -1.0
                # Piecewise-parabolic (P²) height update, linear fallback.
                hp = h[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
                )
                if not h[i - 1] < hp < h[i + 1]:
                    j = i + int(d)
                    hp = h[i] + d * (h[j] - h[i]) / (n[j] - n[i])
                h[i] = hp
                n[i] += d

    def observe_many(self, values) -> None:
        """Feed a batch of values (sequentially — P² is order-dependent)."""
        observe = self.observe
        for v in np.asarray(values, dtype=np.float64).ravel().tolist():
            observe(v)

    @property
    def estimate(self) -> float:
        """Current quantile estimate (NaN until any value arrived)."""
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            data = sorted(self._init)
            return float(data[min(int(self.q * len(data)), len(data) - 1)])
        return self._h[2]


class WindowSeries:
    """Tumbling time-window aggregation on the virtual clock.

    Values land in window ``floor(t / window_s)``; each window
    keeps count, sum, and last value, from which the series views
    (:meth:`counts`, :meth:`means`, :meth:`lasts`, :meth:`rates`) are
    derived.  Feeding is either per-event (:meth:`add`) or vectorized
    over a whole column (:meth:`add_many`) — both produce identical
    windows, which is what keeps streamed and replayed telemetry
    bit-for-bit comparable.
    """

    def __init__(self, window_s: float) -> None:
        if not 0 < window_s < math.inf:  # false for NaN too
            raise ValueError(f"window_s must be positive and finite, got {window_s}")
        self.window_s = float(window_s)
        self._count: dict[int, int] = {}
        self._sum: dict[int, float] = {}
        self._last: dict[int, float] = {}

    def _window(self, t: float) -> int:
        return int(t // self.window_s)

    def add(self, t: float, value: float = 1.0) -> None:
        """Record one (time, value) sample."""
        w = self._window(t)
        self._count[w] = self._count.get(w, 0) + 1
        self._sum[w] = self._sum.get(w, 0.0) + value
        self._last[w] = value

    def add_many(self, times: np.ndarray, values: np.ndarray | None = None) -> None:
        """Record a column of samples in one vectorized pass.

        Within one call, later entries win the per-window ``last`` slot
        (callers pass columns already in virtual-time order).
        """
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        if values is None:
            values = np.ones_like(times)
        values = np.asarray(values, dtype=np.float64)
        win = (times // self.window_s).astype(np.int64)
        order = np.argsort(win, kind="stable")
        win, values = win[order], values[order]
        uniq, start = np.unique(win, return_index=True)
        counts = np.diff(np.append(start, win.shape[0]))
        sums = np.add.reduceat(values, start)
        for w, c, s, last_i in zip(
            uniq.tolist(), counts.tolist(), sums.tolist(), (start + counts - 1).tolist()
        ):
            self._count[w] = self._count.get(w, 0) + int(c)
            self._sum[w] = self._sum.get(w, 0.0) + float(s)
            self._last[w] = float(values[last_i])

    @property
    def windows(self) -> np.ndarray:
        """Start times of every non-empty window, ascending."""
        keys = np.array(sorted(self._count), dtype=np.float64)
        return keys * self.window_s

    def _column(self, table: dict[int, float]) -> np.ndarray:
        return np.array([table[k] for k in sorted(self._count)], dtype=np.float64)

    def counts(self) -> np.ndarray:
        """Samples per window (aligned with :attr:`windows`)."""
        return self._column(self._count)

    def sums(self) -> np.ndarray:
        """Value sum per window."""
        return self._column(self._sum)

    def means(self) -> np.ndarray:
        """Mean value per window."""
        return self.sums() / self.counts()

    def lasts(self) -> np.ndarray:
        """Last value seen in each window (gauge-style sampling)."""
        return self._column(self._last)

    def rates(self) -> np.ndarray:
        """Samples per second per window (throughput view)."""
        return self.counts() / self.window_s


class MetricsRegistry:
    """Named bag of metrics one engine run publishes into.

    Accessors are get-or-create, so engine touchpoints never pre-declare
    metrics; :meth:`snapshot` reduces everything to plain floats for
    asserts, rendering, and controller features.
    """

    def __init__(self, window_s: float = 0.1) -> None:
        if not 0 < window_s < math.inf:  # false for NaN too
            raise ValueError(f"window_s must be positive and finite, got {window_s}")
        self.window_s = float(window_s)
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, factory, kind) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the named gauge."""
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, edges=None) -> Histogram:
        """Get-or-create the named histogram (latency edges by default)."""
        factory = (lambda: Histogram(edges)) if edges is not None else Histogram.latency
        return self._get(name, factory, Histogram)

    def sketch(self, name: str, q: float = 0.99) -> P2Quantile:
        """Get-or-create the named P² streaming quantile."""
        return self._get(name, lambda: P2Quantile(q), P2Quantile)

    def series(self, name: str, window_s: float | None = None) -> WindowSeries:
        """Get-or-create the named tumbling-window series."""
        w = self.window_s if window_s is None else window_s
        return self._get(name, lambda: WindowSeries(w), WindowSeries)

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._metrics))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def snapshot(self) -> dict[str, float]:
        """Scalar view of every metric (counters/gauges/histogram stats)."""
        out: dict[str, float] = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            if isinstance(m, Counter):
                out[name] = float(m.value)
            elif isinstance(m, Gauge):
                out[name] = m.value
            elif isinstance(m, Histogram):
                out[f"{name}.count"] = float(m.count)
                out[f"{name}.mean"] = m.mean
                out[f"{name}.p50"] = m.quantile(0.50)
                out[f"{name}.p99"] = m.quantile(0.99)
            elif isinstance(m, P2Quantile):
                out[f"{name}.p{int(m.q * 100)}"] = m.estimate
            elif isinstance(m, WindowSeries):
                out[f"{name}.windows"] = float(len(m._count))
        return out
