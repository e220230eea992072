"""Simulated utilization monitoring.

The paper samples CPU utilization with ``psutil`` (GCI) and feeds the
average into the power models.  Offline we simulate the same measurement:
a busy/idle square-wave trace at a given duty cycle plus measurement
noise, averaged exactly the way a polling monitor would.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["UtilizationMonitor"]


class UtilizationMonitor:
    """Polling utilization monitor over a simulated inference run.

    Parameters
    ----------
    poll_hz:
        Sampling frequency (psutil-style polling).
    noise_std:
        Measurement noise on each sample (clipped to [0, 1]).
    """

    def __init__(
        self,
        poll_hz: float = 10.0,
        noise_std: float = 0.02,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not 0 < poll_hz < math.inf:  # false for NaN too
            raise ValueError(f"poll_hz must be positive and finite, got {poll_hz}")
        if not 0 <= noise_std < math.inf:
            raise ValueError(f"noise_std must be non-negative and finite, got {noise_std}")
        self.poll_hz = poll_hz
        self.noise_std = noise_std
        self.rng = as_generator(rng)

    def trace(self, duration_s: float, busy_fraction: float) -> np.ndarray:
        """Utilization samples over ``duration_s`` at the given duty cycle."""
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        if not 0.0 <= busy_fraction <= 1.0:
            raise ValueError(f"busy_fraction must be in [0, 1], got {busy_fraction}")
        n = max(1, int(round(duration_s * self.poll_hz)))
        # Busy within each poll interval with probability = duty cycle;
        # long runs converge to the duty cycle like a real polling monitor.
        busy = self.rng.random(n) < busy_fraction
        samples = busy.astype(np.float64)
        if self.noise_std:
            samples = samples + self.rng.normal(0.0, self.noise_std, n)
        return np.clip(samples, 0.0, 1.0)

    def average_utilization(self, duration_s: float, busy_fraction: float) -> float:
        """Mean of a polled trace — what feeds Eq. 1 / Eq. 2."""
        return float(self.trace(duration_s, busy_fraction).mean())
