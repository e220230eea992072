"""Unit tests for the simulated utilization monitor."""

import numpy as np
import pytest

from repro.hw.monitor import UtilizationMonitor


class TestUtilizationMonitor:
    def test_trace_length(self):
        mon = UtilizationMonitor(poll_hz=10, rng=np.random.default_rng(0))
        trace = mon.trace(duration_s=2.0, busy_fraction=0.5)
        assert trace.shape == (20,)

    def test_samples_in_unit_interval(self):
        mon = UtilizationMonitor(rng=np.random.default_rng(0))
        trace = mon.trace(5.0, 0.7)
        assert trace.min() >= 0.0 and trace.max() <= 1.0

    def test_average_converges_to_duty_cycle(self):
        mon = UtilizationMonitor(poll_hz=100, noise_std=0.0, rng=np.random.default_rng(0))
        avg = mon.average_utilization(duration_s=100.0, busy_fraction=0.6)
        assert avg == pytest.approx(0.6, abs=0.03)

    def test_extremes(self):
        mon = UtilizationMonitor(noise_std=0.0, rng=np.random.default_rng(0))
        assert mon.average_utilization(10.0, 0.0) == pytest.approx(0.0)
        assert mon.average_utilization(10.0, 1.0) == pytest.approx(1.0)

    def test_invalid_args_raise(self):
        mon = UtilizationMonitor(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mon.trace(-1.0, 0.5)
        with pytest.raises(ValueError):
            mon.trace(1.0, 1.5)
        with pytest.raises(ValueError):
            UtilizationMonitor(poll_hz=0)

    @pytest.mark.parametrize("poll_hz", [float("nan"), float("inf")])
    def test_nan_and_infinite_poll_rate_rejected(self, poll_hz):
        with pytest.raises(ValueError, match="poll_hz"):
            UtilizationMonitor(poll_hz=poll_hz)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_nan_and_infinite_noise_rejected(self, noise_std):
        """``noise_std=nan`` once made ``average_utilization`` return NaN."""
        with pytest.raises(ValueError, match="noise_std"):
            UtilizationMonitor(noise_std=noise_std)
