"""Calibrated device profiles for the paper's three testbeds.

Each profile's free parameters — effective conv throughput, effective
dense throughput, per-layer dispatch overhead, per-sample gating/sync
overhead — are fitted (non-negative least squares) to the paper's
Table II MNIST measurements on that device:

* LeNet latency/image,
* BranchyNet latency/image at the paper's 94.88% early-exit rate,
* CBNet latency/image, split 75% classifier / 25% autoencoder
  (§IV-D: the converting autoencoder contributes "up to 25% of the total
  inference time").

The fit runs against the *actual* architectures in :mod:`repro.models`,
so any architecture change re-derives consistent device constants.
Residuals are recorded in each profile's ``description``.  The fitted
vector is stored in the artifact cache (:mod:`repro.utils.cache`) under
a key holding the fit's inputs, so the fit runs once per cache, not
once per process, and a process that finds it there does not import
scipy for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.hw.device import DeviceProfile
from repro.hw.flops import model_cost, stage_cost
from repro.hw.power import GCI_POWER, GPU_POWER, PI_POWER, PowerModel
from repro.utils.cache import ArtifactCache

__all__ = [
    "TABLE2_MNIST_MS",
    "calibrate_device",
    "raspberry_pi4",
    "gci_cpu",
    "gci_gpu",
    "device_profiles",
]

# Table II, MNIST rows: latency per image in milliseconds.
TABLE2_MNIST_MS: dict[str, dict[str, float]] = {
    "raspberry-pi4": {"lenet": 12.735, "branchynet": 2.3, "cbnet": 1.877},
    "gci-cpu": {"lenet": 1.322, "branchynet": 0.395, "cbnet": 0.267},
    "gci-k80": {"lenet": 0.266, "branchynet": 0.118, "cbnet": 0.105},
}

# §IV-D: "About 94.88% of test samples in the MNIST datasets took the
# early exit" — the operating point at which Table II was measured.
PAPER_MNIST_EXIT_RATE = 0.9488
# §IV-D: autoencoder share of CBNet latency used as the calibration split.
AE_SHARE_OF_CBNET = 0.25

_POWER: dict[str, PowerModel] = {
    "raspberry-pi4": PI_POWER,
    "gci-cpu": GCI_POWER,
    "gci-k80": GPU_POWER,
}
_BANDWIDTH_GBS = {"raspberry-pi4": 3.0, "gci-cpu": 10.0, "gci-k80": 150.0}
_UTILIZATION = {"raspberry-pi4": 0.95, "gci-cpu": 0.90, "gci-k80": 0.90}


def _count(stage_costs) -> tuple[float, float, int]:
    """(conv MACs, dense MACs, overhead-bearing layer count) of stages."""
    conv = dense = 0.0
    n_overhead = 0
    for sc in stage_costs:
        for layer in sc.layers:
            if layer.kind == "conv":
                conv += layer.macs
            elif layer.kind == "dense":
                dense += layer.macs
            if layer.kind in ("conv", "dense", "pool"):
                n_overhead += 1
    return conv, dense, n_overhead


@lru_cache(maxsize=None)
def _architecture_counts() -> dict[str, tuple[float, float, int]]:
    """MAC/overhead counts of every path in the paper's models."""
    from repro.models.autoencoder import ConvertingAutoencoder
    from repro.models.branchynet import BranchyLeNet
    from repro.models.lenet import LeNet

    lenet = LeNet(rng=0)
    branchy = BranchyLeNet(rng=0)
    ae = ConvertingAutoencoder.for_dataset("mnist", rng=0)

    lenet_costs = model_cost(lenet)
    stem = stage_cost("stem", branchy.stem, branchy.IN_SHAPE)
    branch = stage_cost("branch", branchy.branch, stem.out_shape)
    trunk = stage_cost("trunk", branchy.trunk, stem.out_shape)
    ae_enc = stage_cost("encoder", ae.encoder, (ae.spec.input_dim,))
    ae_dec = stage_cost("decoder", ae.decoder, ae_enc.out_shape)

    return {
        "lenet": _count(lenet_costs),
        "early": _count([stem, branch]),  # BranchyNet early path = CBNet classifier
        "full": _count([stem, branch, trunk]),  # hard samples run everything
        "autoencoder": _count([ae_enc, ae_dec]),
    }


def _fit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-negative least squares ``a @ x ≈ b`` with rows scaled by ``1/b``.

    The solution comes from the artifact cache when one holds it for
    these exact inputs; ``lsq_linear`` (and with it scipy) loads only
    on a miss, and the cache keeps its array as solved.
    """

    def solve() -> np.ndarray:
        from scipy.optimize import lsq_linear

        # Row scaling equalizes the four residuals' relative weight.
        scale = 1.0 / b
        return lsq_linear(a * scale[:, None], b * scale, bounds=(0.0, np.inf)).x

    key = {"kind": "device-fit", "a": a.tolist(), "b": b.tolist(), "version": 1}
    return ArtifactCache().get_or_compute(key, solve)


@lru_cache(maxsize=None)
def calibrate_device(name: str) -> DeviceProfile:
    """Fit a :class:`DeviceProfile` to Table II latencies for ``name``.

    Solves (non-negatively) for x = (sec/conv-MAC, sec/dense-MAC,
    per-layer overhead, per-sample sync overhead) in the linear system
    built from the four calibration equations described in the module
    docstring, at the paper's exit rate and autoencoder share.

    Calibration is memoized per device in the process, and the fitted
    vector in the artifact cache, so a warm cache never refits.
    """
    if name not in TABLE2_MNIST_MS:
        raise KeyError(f"unknown device {name!r}; known: {sorted(TABLE2_MNIST_MS)}")
    targets = TABLE2_MNIST_MS[name]
    counts = _architecture_counts()
    c_len, d_len, o_len = counts["lenet"]
    c_e, d_e, o_e = counts["early"]
    c_f, d_f, o_f = counts["full"]
    c_ae, d_ae, o_ae = counts["autoencoder"]
    p = PAPER_MNIST_EXIT_RATE

    # Rows: LeNet, BranchyNet (expected over exits, + 1 sync), CBNet
    # classifier part, CBNet autoencoder part.  Columns: c, d, o, s.
    a = np.array(
        [
            [c_len, d_len, o_len, 0.0],
            [
                p * c_e + (1 - p) * c_f,
                p * d_e + (1 - p) * d_f,
                p * o_e + (1 - p) * o_f,
                1.0,
            ],
            [c_e, d_e, o_e, 0.0],
            [c_ae, d_ae, o_ae, 0.0],
        ]
    )
    b = np.array(
        [
            targets["lenet"],
            targets["branchynet"],
            (1.0 - AE_SHARE_OF_CBNET) * targets["cbnet"],
            AE_SHARE_OF_CBNET * targets["cbnet"],
        ]
    ) * 1e-3  # ms → s

    x = _fit(a, b)
    c_sec, d_sec, o_sec, s_sec = x
    fitted = a @ x
    residual_pct = 100.0 * np.abs(fitted - b) / b

    # Guard against degenerate fits (a rate of exactly 0 → infinite time).
    c_sec = max(c_sec, 1e-13)
    d_sec = max(d_sec, 1e-13)

    return DeviceProfile(
        name=name,
        conv_gmacs=1.0 / (c_sec * 1e9),
        dense_gmacs=1.0 / (d_sec * 1e9),
        mem_bandwidth_gbs=_BANDWIDTH_GBS[name],
        layer_overhead_s=float(o_sec),
        inference_overhead_s=0.0,
        sync_overhead_s=float(s_sec),
        utilization=_UTILIZATION[name],
        power=_POWER[name],
        description=(
            f"calibrated to Table II MNIST (residuals: lenet {residual_pct[0]:.1f}%, "
            f"branchynet {residual_pct[1]:.1f}%, cbnet-clf {residual_pct[2]:.1f}%, "
            f"cbnet-ae {residual_pct[3]:.1f}%)"
        ),
    )


@lru_cache(maxsize=None)
def raspberry_pi4() -> DeviceProfile:
    """Raspberry Pi 4 (Chameleon CHI@Edge testbed)."""
    return calibrate_device("raspberry-pi4")


@lru_cache(maxsize=None)
def gci_cpu() -> DeviceProfile:
    """Google Cloud N1 instance, 2 vCPU, no GPU."""
    return calibrate_device("gci-cpu")


@lru_cache(maxsize=None)
def gci_gpu() -> DeviceProfile:
    """Google Cloud N1 instance with an Nvidia Tesla K80."""
    return calibrate_device("gci-k80")


def device_profiles() -> dict[str, DeviceProfile]:
    """All three calibrated testbed profiles, keyed by name.

    The profiles themselves are memoized (built once per process);
    the mapping is rebuilt per call, so callers may filter or pop
    entries without poisoning later calls.
    """
    return {
        "raspberry-pi4": raspberry_pi4(),
        "gci-cpu": gci_cpu(),
        "gci-k80": gci_gpu(),
    }

