"""Arrival-time and popularity generators."""

import math

import numpy as np
import pytest

from repro.serving.arrivals import (
    bursty_arrivals,
    constant_arrivals,
    diurnal_arrivals,
    diurnal_class_mix,
    flash_crowd_arrivals,
    poisson_arrivals,
    trace_arrivals,
    zipf_popularity,
)


#: One generator call per rate, period, phase or timestamp argument,
#: with the argument under test left as ``x``.
_NON_FINITE_CALLS = {
    "poisson-rate": lambda x: poisson_arrivals(x, 3),
    "constant-rate": lambda x: constant_arrivals(x, 3),
    "bursty-base": lambda x: bursty_arrivals(x, x, 3),
    "bursty-burst": lambda x: bursty_arrivals(10.0, x, 3),
    "bursty-phase": lambda x: bursty_arrivals(10.0, 50.0, 3, mean_phase_s=x),
    "diurnal-rate": lambda x: diurnal_arrivals(x, 3, period_s=1.0),
    "diurnal-period": lambda x: diurnal_arrivals(10.0, 3, period_s=x),
    "flash-base": lambda x: flash_crowd_arrivals(x, x, 3, 1.0, 1.0),
    "flash-peak": lambda x: flash_crowd_arrivals(10.0, x, 3, 1.0, 1.0),
    "flash-start": lambda x: flash_crowd_arrivals(10.0, 50.0, 3, x, 1.0),
    "flash-duration": lambda x: flash_crowd_arrivals(10.0, 50.0, 3, 1.0, x),
    "trace-timestamp": lambda x: trace_arrivals([0.0, x]),
    "class-mix-period": lambda x: diurnal_class_mix([0.0, 1.0], x, [1, 1], [1, 1]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", _NON_FINITE_CALLS.values(), ids=_NON_FINITE_CALLS.keys())
def test_non_finite_argument_rejected(call, bad):
    """``x <= 0`` is false for NaN, so a NaN rate used to yield NaN
    times, and an infinite rate a trace of zeros."""
    with pytest.raises(ValueError, match="finite"):
        call(bad)


class TestPoissonArrivals:
    def test_mean_rate_matches(self):
        times = poisson_arrivals(100.0, 50_000, rng=0)
        assert np.all(np.diff(times) >= 0)
        assert 50_000 / times[-1] == pytest.approx(100.0, rel=0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(ValueError):
            poisson_arrivals(10.0, 0)


class TestConstantArrivals:
    def test_periodic(self):
        times = constant_arrivals(50.0, 5)
        np.testing.assert_allclose(np.diff(times), 0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            constant_arrivals(-1.0, 5)


class TestBurstyArrivals:
    def test_sorted_and_sized(self):
        times = bursty_arrivals(50.0, 500.0, 2000, rng=1)
        assert times.shape == (2000,)
        assert np.all(np.diff(times) >= 0)

    def test_clumpier_than_poisson(self):
        """Burst phases inflate inter-arrival variance vs a Poisson
        stream at the same mean rate."""
        bursty = bursty_arrivals(50.0, 500.0, 20_000, rng=2)
        mean_rate = 20_000 / bursty[-1]
        poisson = poisson_arrivals(mean_rate, 20_000, rng=2)
        cv = lambda t: np.diff(t).std() / np.diff(t).mean()
        assert cv(bursty) > cv(poisson) * 1.1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bursty_arrivals(100.0, 50.0, 10)  # burst < base
        with pytest.raises(ValueError):
            bursty_arrivals(0.0, 50.0, 10)
        with pytest.raises(ValueError):
            bursty_arrivals(10.0, 50.0, 10, mean_phase_s=0.0)


class TestDiurnalArrivals:
    def test_mean_rate_matches(self):
        times = diurnal_arrivals(100.0, 50_000, period_s=20.0, depth=0.75, rng=1)
        assert np.all(np.diff(times) >= 0)
        assert 50_000 / times[-1] == pytest.approx(100.0, rel=0.03)

    def test_peak_vs_trough_rates(self):
        """Arrivals cluster around the sinusoid's peaks, thin out in troughs."""
        period = 10.0
        times = diurnal_arrivals(200.0, 40_000, period_s=period, depth=0.8, rng=2)
        phase = (times % period) / period
        peak = ((phase > 0.15) & (phase < 0.35)).sum()  # sin ≈ +1
        trough = ((phase > 0.65) & (phase < 0.85)).sum()  # sin ≈ -1
        assert peak > 4 * trough

    def test_pinned_trace(self):
        """Seed-for-seed regression: the vectorized thinning sampler is
        deterministic (fixed chunk schedule), so this exact trace is the
        generator's contract."""
        times = diurnal_arrivals(120.0, 6, period_s=4.0, depth=0.6, rng=7)
        np.testing.assert_allclose(
            times,
            [0.00902465, 0.01198584, 0.01664787, 0.01772356, 0.03539747, 0.05002881],
            atol=1e-8,
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            diurnal_arrivals(0.0, 10, period_s=1.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(10.0, 0, period_s=1.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(10.0, 10, period_s=0.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(10.0, 10, period_s=1.0, depth=1.0)


class TestFlashCrowdArrivals:
    def test_spike_rate(self):
        times = flash_crowd_arrivals(
            50.0, 500.0, 20_000, spike_start_s=10.0, spike_duration_s=5.0, rng=2
        )
        assert np.all(np.diff(times) >= 0)
        in_spike = ((times >= 10.0) & (times < 15.0)).sum()
        assert in_spike / 5.0 == pytest.approx(500.0, rel=0.1)
        before = (times < 10.0).sum()
        assert before / 10.0 == pytest.approx(50.0, rel=0.15)

    def test_pinned_trace(self):
        """Seed-for-seed regression for the vectorized step-rate sampler."""
        times = flash_crowd_arrivals(
            40.0, 400.0, 6, spike_start_s=0.05, spike_duration_s=0.1, rng=7
        )
        np.testing.assert_allclose(
            times,
            [0.00850731, 0.03853618, 0.05131735, 0.051505, 0.05165512, 0.05471403],
            atol=1e-8,
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            flash_crowd_arrivals(0.0, 10.0, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(10.0, 5.0, 10, 1.0, 1.0)  # peak < base
        with pytest.raises(ValueError):
            flash_crowd_arrivals(10.0, 50.0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(10.0, 50.0, 10, -1.0, 1.0)
        with pytest.raises(ValueError):
            flash_crowd_arrivals(10.0, 50.0, 10, 1.0, 0.0)


class TestTraceArrivals:
    def test_valid_trace_passes_through(self):
        times = trace_arrivals([0.0, 0.5, 0.5, 2.0])
        assert times.dtype == np.float64
        np.testing.assert_allclose(times, [0.0, 0.5, 0.5, 2.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            trace_arrivals([0.0, 2.0, 1.0])

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="non-negative"):
            trace_arrivals([-0.1, 0.5])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            trace_arrivals([])
        with pytest.raises(ValueError):
            trace_arrivals([[0.0, 1.0]])

    def test_feeds_the_server(self):
        """A hand-written trace drives Server.serve end to end."""
        from repro.serving.backends import BatchTiming, InferenceBackend
        from repro.serving.engine import Server

        class Flat(InferenceBackend):
            name = "flat"

            def __init__(self):
                super().__init__(BatchTiming(overhead_s=0.001, per_item_s=0.001))

            def predict(self, images, decision=None):
                return np.zeros(images.shape[0], dtype=np.int64)

        images = np.zeros((4, 1, 2, 2), dtype=np.float32)
        report = Server(Flat(), max_batch_size=2, max_wait_s=0.01).serve(
            images, trace_arrivals([0.0, 0.0, 0.5, 0.9])
        )
        assert report.n_requests == 4
        assert report.batch_histogram == {1: 2, 2: 1}


class TestZipfPopularity:
    def test_skewed_towards_low_indices(self):
        draws = zipf_popularity(100, 50_000, exponent=1.1, rng=3)
        assert draws.min() >= 0 and draws.max() < 100
        counts = np.bincount(draws, minlength=100)
        assert counts[0] > counts[50] > 0

    def test_exponent_zero_is_uniform(self):
        draws = zipf_popularity(10, 50_000, exponent=0.0, rng=4)
        counts = np.bincount(draws, minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 10)
        with pytest.raises(ValueError):
            zipf_popularity(10, 0)
        with pytest.raises(ValueError):
            zipf_popularity(10, 10, exponent=-1.0)
