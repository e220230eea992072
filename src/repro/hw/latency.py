"""Model → per-device latency estimation.

All functions return *seconds per image* for single-sample edge inference
(the paper's measurement protocol: total time over the test set divided
by the number of images).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.device import DeviceProfile
from repro.hw.flops import StageCost, model_cost, stage_cost

__all__ = [
    "latency_of_stages",
    "model_latency",
    "lenet_latency",
    "BranchyLatency",
    "branchynet_expected_latency",
    "CBNetLatency",
    "cbnet_latency",
]


def latency_of_stages(stages: list[StageCost], device: DeviceProfile) -> float:
    """Latency of running a list of stage costs back to back."""
    return device.inference_overhead_s + sum(device.stage_latency(s) for s in stages)


def model_latency(model, device: DeviceProfile, in_shape: tuple[int, ...] | None = None) -> float:
    """Latency of a plain feed-forward model (all stages sequential)."""
    return latency_of_stages(model_cost(model, in_shape), device)


def lenet_latency(lenet, device: DeviceProfile) -> float:
    """Per-image latency of the LeNet baseline."""
    return model_latency(lenet, device)


@dataclass(frozen=True)
class BranchyLatency:
    """Latency decomposition of threshold-gated BranchyNet inference."""

    early_path: float  # stem + branch (+ gate)
    full_path: float  # stem + branch + trunk (+ gate)
    exit_rate: float

    @property
    def expected(self) -> float:
        """Average per-image latency at the given early-exit rate."""
        return self.exit_rate * self.early_path + (1.0 - self.exit_rate) * self.full_path


def branchynet_expected_latency(
    branchy, device: DeviceProfile, exit_rate: float
) -> BranchyLatency:
    """Expected BranchyNet latency at an observed early-exit rate.

    Every sample pays stem + branch + one gating decision
    (``device.sync_overhead_s``); non-exiting samples additionally pay the
    trunk.
    """
    if not 0.0 <= exit_rate <= 1.0:
        raise ValueError(f"exit_rate must be in [0, 1], got {exit_rate}")
    stem = stage_cost("stem", branchy.stem, branchy.IN_SHAPE)
    branch = stage_cost("branch", branchy.branch, stem.out_shape)
    trunk = stage_cost("trunk", branchy.trunk, stem.out_shape)
    base = device.inference_overhead_s + device.sync_overhead_s
    early = base + device.stage_latency(stem) + device.stage_latency(branch)
    full = early + device.stage_latency(trunk)
    return BranchyLatency(early_path=early, full_path=full, exit_rate=exit_rate)


@dataclass(frozen=True)
class CBNetLatency:
    """Latency decomposition of the CBNet pipeline (paper §IV-D)."""

    autoencoder: float
    classifier: float

    @property
    def total(self) -> float:
        return self.autoencoder + self.classifier

    @property
    def autoencoder_share(self) -> float:
        return self.autoencoder / self.total if self.total else 0.0


def cbnet_latency(cbnet, device: DeviceProfile) -> CBNetLatency:
    """Per-image latency of CBNet = converting AE + lightweight classifier.

    The pipeline is static (no data-dependent control flow), so no gating
    overhead applies — the property that lets CBNet undercut BranchyNet
    even when their FLOPs are comparable.
    """
    ae = cbnet.autoencoder
    enc = stage_cost("encoder", ae.encoder, (ae.spec.input_dim,))
    dec = stage_cost("decoder", ae.decoder, enc.out_shape)
    clf = cbnet.classifier
    stem = stage_cost("stem", clf.stem, clf.IN_SHAPE)
    head = stage_cost("head", clf.head, stem.out_shape)
    ae_lat = device.stage_latency(enc) + device.stage_latency(dec)
    clf_lat = device.stage_latency(stem) + device.stage_latency(head)
    return CBNetLatency(
        autoencoder=ae_lat, classifier=clf_lat + device.inference_overhead_s
    )
