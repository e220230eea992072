"""Unit tests for the metric primitives: accuracy pins and contracts.

The sketch accuracy tests are the load-bearing ones: the histogram's
interpolated quantiles and the P² streaming estimator both *claim*
bounded error versus the exact sample quantile — here they are pinned
against ``np.percentile`` on heavy-ish-tailed samples.
"""

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    WindowSeries,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_gauge_last_value_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_quantiles_within_bucket_resolution(self):
        # 24 buckets/decade bounds relative error at ~10%; lognormal
        # latencies exercise several decades.
        rng = np.random.default_rng(0)
        values = np.exp(rng.normal(np.log(0.02), 1.0, 50_000))
        values = np.clip(values, 1e-4, 60.0)
        h = Histogram.latency()
        h.observe_many(values)
        for q in (0.5, 0.9, 0.99):
            exact = float(np.percentile(values, 100 * q))
            assert h.quantile(q) == pytest.approx(exact, rel=0.12)

    def test_exact_summary_stats(self):
        values = np.array([0.001, 0.01, 0.1, 1.0])
        h = Histogram.latency()
        h.observe_many(values)
        assert h.count == 4
        assert h.mean == pytest.approx(values.mean())
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(1.0)

    def test_quantile_clipped_to_observed_range(self):
        h = Histogram(np.array([1.0, 2.0, 4.0]))
        h.observe_many(np.full(10, 1.5))
        assert 1.5 <= h.quantile(0.99) <= 1.5 + 1e-12
        assert h.quantile(0.0) >= h.min

    def test_empty_histogram_nan(self):
        h = Histogram.latency()
        assert np.isnan(h.quantile(0.5))
        assert np.isnan(h.mean)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError, match="at least one"):
            Histogram([])
        with pytest.raises(ValueError, match="q must be"):
            Histogram.latency().quantile(1.5)

    def test_observe_many_matches_sequential(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(1e-3, 1.0, 500)
        batched, seq = Histogram.latency(), Histogram.latency()
        batched.observe_many(values)
        for v in values:
            seq.observe(v)
        assert np.array_equal(batched.counts, seq.counts)
        assert batched.sum == pytest.approx(seq.sum)


class TestP2Quantile:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_tracks_numpy_percentile(self, q):
        rng = np.random.default_rng(2)
        values = np.exp(rng.normal(0.0, 0.5, 20_000))
        sketch = P2Quantile(q)
        sketch.observe_many(values)
        exact = float(np.percentile(values, 100 * q))
        assert sketch.estimate == pytest.approx(exact, rel=0.05)

    def test_small_samples_fall_back_to_sorted(self):
        sketch = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            sketch.observe(v)
        assert sketch.estimate == 2.0

    def test_empty_is_nan(self):
        assert np.isnan(P2Quantile(0.9).estimate)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="q must be"):
                P2Quantile(bad)


class TestWindowSeries:
    def test_add_many_matches_sequential_add(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 2.0, 400))
        values = rng.uniform(0.0, 5.0, 400)
        batched, seq = WindowSeries(0.1), WindowSeries(0.1)
        batched.add_many(times, values)
        for t, v in zip(times, values):
            seq.add(t, v)
        assert np.array_equal(batched.windows, seq.windows)
        assert np.array_equal(batched.counts(), seq.counts())
        assert np.allclose(batched.sums(), seq.sums())
        assert np.allclose(batched.lasts(), seq.lasts())

    @pytest.mark.parametrize("seed", range(8))
    def test_windows_start_at_multiples_of_the_width(self, seed):
        """Windows are anchored at t = 0: each sample lands in the
        window ``floor(t / width)``, which starts at that multiple."""
        rng = np.random.default_rng(seed)
        width = float(rng.uniform(0.01, 1.0))
        times = np.sort(rng.uniform(0.0, 50.0 * width, 200))
        s = WindowSeries(width)
        s.add_many(times)
        keys = np.unique(np.floor_divide(times, width))
        assert np.array_equal(s.windows, keys * width)
        assert s.counts().sum() == len(times)

    def test_window_bucketing_and_rates(self):
        s = WindowSeries(1.0)
        s.add_many(np.array([0.1, 0.2, 1.5, 3.9]))
        assert np.array_equal(s.windows, [0.0, 1.0, 3.0])
        assert np.array_equal(s.counts(), [2, 1, 1])
        assert np.array_equal(s.rates(), [2.0, 1.0, 1.0])

    def test_means(self):
        s = WindowSeries(1.0)
        s.add(0.5, 2.0)
        s.add(0.6, 4.0)
        assert np.array_equal(s.means(), [3.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="window_s"):
            WindowSeries(0.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"window_s": float("nan")}, "window_s"),
            ({"window_s": float("inf")}, "window_s"),
        ],
    )
    def test_nan_and_infinite_settings_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            WindowSeries(**kwargs)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg
        assert reg["a"] is reg.counter("a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_flattens_every_kind(self):
        reg = MetricsRegistry(window_s=1.0)
        reg.counter("c").inc(2)
        reg.gauge("g").set(7.0)
        reg.histogram("h").observe(0.01)
        reg.sketch("s", q=0.9).observe(1.0)
        reg.series("w").add(0.5)
        snap = reg.snapshot()
        assert snap["c"] == 2.0
        assert snap["g"] == 7.0
        assert snap["h.count"] == 1.0
        assert "s.p90" in snap
        assert snap["w.windows"] == 1.0

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ("a", "b")

    @pytest.mark.parametrize("window_s", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_window_fails_at_construction(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            MetricsRegistry(window_s=window_s)
