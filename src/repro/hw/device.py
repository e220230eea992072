"""Device profile: the parameters of the per-layer latency model.

The model assigns each layer class a device-specific effective
throughput:

* ``conv`` layers — small, shape-irregular GEMMs after im2col; on edge
  CPUs these run far below peak (cache-unfriendly, overhead-bound).
* ``dense`` layers — large contiguous GEMV/GEMMs that BLAS executes near
  its sustained rate.  The paper's measurements embed exactly this split:
  the 1.9-MFLOP MLP autoencoder contributes only ~25% of CBNet's time
  while the 0.8-MFLOP conv network costs 5x more (§IV-D).
* ``pool``/``elementwise`` layers — memory-bound; costed by bytes moved
  against the device's effective bandwidth.

plus a per-layer dispatch overhead (framework/interpreter cost) and a
fixed per-inference overhead.  The numeric values per device are fitted
to the paper's Table II in :mod:`repro.hw.devices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.flops import LayerCost, StageCost
from repro.hw.power import PowerModel

__all__ = ["DeviceProfile"]


@dataclass(frozen=True)
class DeviceProfile:
    """An edge/cloud device for the latency + power simulation.

    Attributes
    ----------
    conv_gmacs, dense_gmacs:
        Effective sustained throughput in Giga-MACs/s for conv and dense
        layers respectively.
    mem_bandwidth_gbs:
        Effective memory bandwidth (GB/s) for memory-bound layers.
    layer_overhead_s:
        Fixed dispatch cost charged to every conv/dense/pool layer.
    inference_overhead_s:
        Fixed cost charged once per inference (input staging etc.).
    power:
        The device's power model (paper Eq. 1 / Eq. 2 / GPU constants).
    sync_overhead_s:
        Cost of one *dynamic control-flow decision* (BranchyNet's
        per-sample entropy gate): computing the gate statistic, branching
        on it, and — on accelerators — the device-host synchronization it
        forces.  CBNet's static AE→classifier pipeline pays none of this,
        which is visible in the paper's K80 numbers (CBNet beats even
        BranchyNet's pure early-exit path).
    utilization:
        Average CPU utilization during inference, feeding the power model
        (the paper observes "negligible difference ... between various
        models", so one value per device suffices).
    """

    name: str
    conv_gmacs: float
    dense_gmacs: float
    mem_bandwidth_gbs: float
    layer_overhead_s: float
    inference_overhead_s: float
    power: PowerModel
    sync_overhead_s: float = 0.0
    utilization: float = 0.95
    description: str = ""

    def __post_init__(self) -> None:
        # Negated comparisons: NaN fails every comparison, so it is
        # rejected too.
        for attr in ("conv_gmacs", "dense_gmacs", "mem_bandwidth_gbs"):
            if not 0 < getattr(self, attr) < math.inf:
                raise ValueError(f"{self.name}: {attr} must be positive and finite")
        for attr in ("layer_overhead_s", "inference_overhead_s", "sync_overhead_s"):
            if not 0 <= getattr(self, attr) < math.inf:
                raise ValueError(f"{self.name}: {attr} must be finite and non-negative")
        if not 0 < self.utilization <= 1:
            raise ValueError(f"{self.name}: utilization must be in (0, 1]")

    # ------------------------------------------------------------------ #
    # latency model
    # ------------------------------------------------------------------ #
    def layer_latency(self, cost: LayerCost) -> float:
        """Seconds to execute one layer for a single sample."""
        if cost.kind == "conv":
            compute = cost.macs / (self.conv_gmacs * 1e9)
        elif cost.kind == "dense":
            compute = cost.macs / (self.dense_gmacs * 1e9)
        elif cost.kind in ("pool", "elementwise"):
            compute = cost.bytes_total / (self.mem_bandwidth_gbs * 1e9)
        else:  # "none": reshape/flatten — free
            return 0.0
        overhead = self.layer_overhead_s if cost.kind in ("conv", "dense", "pool") else 0.0
        return compute + overhead

    def stage_latency(self, stage: StageCost) -> float:
        """Seconds to execute one stage for a single sample."""
        return sum(self.layer_latency(layer) for layer in stage.layers)
