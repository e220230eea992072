"""Energy accounting (paper §IV-C): E = P(u) · Δt."""

from __future__ import annotations

from repro.hw.device import DeviceProfile

__all__ = ["energy_joules", "energy_savings_percent"]


def energy_joules(device: DeviceProfile, latency_s: float) -> float:
    """Energy of one inference: average power times latency.

    Power is drawn at the device's calibrated average utilization (the
    paper: "negligible difference in the CPU power consumption between
    various models").
    """
    if latency_s < 0:
        raise ValueError(f"latency must be non-negative, got {latency_s}")
    return device.power(device.utilization) * latency_s


def energy_savings_percent(baseline_joules: float, model_joules: float) -> float:
    """Percent energy saved relative to a baseline (Table II columns)."""
    if baseline_joules <= 0:
        raise ValueError(f"baseline energy must be positive, got {baseline_joules}")
    return 100.0 * (1.0 - model_joules / baseline_joules)
