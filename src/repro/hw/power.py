"""Power models — reproduced from the paper verbatim (§IV-C).

Eq. 1 (GCI CPU):      P = (n/N) * (P_idle + (P_peak - P_idle) * u^beta)
Eq. 2 (PowerPi):      P = P_idle + (P_peak - P_idle) * u^beta,  beta = 1

Constants from the paper: the GCI host is an Intel Xeon E5-2699 v3 with
P_idle = 40 W, P_peak = 180 W, N = 18 cores, n = 2 vCPUs, beta = 0.75
(Hsu & Poole); the Pi 4 has P_idle = 2.7 W, P_peak = 6.4 W.  For the GPU
instance the paper reports a measured average of 79 W GPU draw plus
17.7 W CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "gci_cpu_power",
    "raspberry_pi_power",
    "PowerModel",
    "GCI_POWER",
    "PI_POWER",
    "GPU_POWER",
]


# The paper's constants (see the module docstring).
_GCI_VCPUS, _GCI_HOST_CORES = 2, 18
_GCI_IDLE_W, _GCI_PEAK_W, _GCI_BETA = 40.0, 180.0, 0.75
_PI_IDLE_W, _PI_PEAK_W, _PI_BETA = 2.7, 6.4, 1.0


def gci_cpu_power(utilization: float) -> float:
    """Paper Eq. 1: vCPU share of the host's utilization-dependent power."""
    _check_utilization(utilization)
    return (_GCI_VCPUS / _GCI_HOST_CORES) * (
        _GCI_IDLE_W + (_GCI_PEAK_W - _GCI_IDLE_W) * utilization**_GCI_BETA
    )


def raspberry_pi_power(utilization: float) -> float:
    """Paper Eq. 2 (PowerPi): linear-in-utilization device power."""
    _check_utilization(utilization)
    return _PI_IDLE_W + (_PI_PEAK_W - _PI_IDLE_W) * utilization**_PI_BETA


def _check_utilization(u: float) -> None:
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"utilization must be in [0, 1], got {u}")


@dataclass(frozen=True)
class PowerModel:
    """Callable power model bound to its device constants.

    ``kind`` selects the formula; ``gpu_watts`` adds a constant
    accelerator draw (the paper's K80 instance: 79 W GPU + 17.7 W CPU,
    with the CPU part modelled by Eq. 1).
    """

    kind: str  # "gci" | "pi" | "gpu"
    gpu_watts: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.gpu_watts < math.inf:  # false for NaN too
            raise ValueError(f"gpu_watts must be finite and >= 0, got {self.gpu_watts}")

    def __call__(self, utilization: float) -> float:
        if self.kind == "pi":
            return raspberry_pi_power(utilization)
        if self.kind == "gci":
            return gci_cpu_power(utilization)
        if self.kind == "gpu":
            # Paper §IV-E: "average CPU power consumption is 17.7 W while
            # the average GPU power consumption is six times higher (79 W)".
            return 17.7 + self.gpu_watts
        raise ValueError(f"unknown power model kind {self.kind!r}")


GCI_POWER = PowerModel(kind="gci")
PI_POWER = PowerModel(kind="pi")
GPU_POWER = PowerModel(kind="gpu", gpu_watts=79.0)
