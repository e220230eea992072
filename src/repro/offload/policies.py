"""Runtime offload deciders and intermediate-tensor wire codecs.

A policy answers, per request, *"run the rest locally or ship it?"*
given an :class:`OffloadContext` — the branch-gate statistic plus the
engine's latency estimates for both continuations.  Four deciders cover
the canonical strategies:

* :class:`AlwaysLocal` — the on-device baseline (hard samples pay the
  trunk on the edge);
* :class:`AlwaysRemote` — classic full offloading: the raw input ships,
  the edge never computes;
* :class:`EntropyGated` — the BranchyNet gate as an *offload* gate:
  easy samples exit at the branch, hard samples ship the stem activation
  upstream.  An optional threshold override decouples the offload
  operating point from the model's accuracy-tuned exit threshold;
* :class:`DeadlineAware` — entropy-gated with a link-health check: hard
  samples ship while the remote path is estimated to meet the deadline,
  and fall back to local trunks when the link degrades past it —
  trading per-request latency for not queueing work on dead air.

A :class:`TensorCodec` shrinks the shipped activation: ``float16``
halves the payload by dtype cast; ``uint8`` rides the quantization
machinery in :mod:`repro.baselines.quantization` — the affine
scale/zero-point code (8-byte header) for a ~4x cut, with the
Deep-Compression k-means sharing available as ``kmeans8`` when a
256-entry codebook per payload is worth it (large tensors).  ``decode``
returns the float32 tensor the cloud replica actually sees, so any
accuracy delta from quantized transfer shows up in genuinely-served
predictions, not in a side formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.quantization import (
    affine_dequantize,
    affine_quantize,
    kmeans_quantize,
)

__all__ = [
    "OffloadContext",
    "OffloadPolicy",
    "AlwaysLocal",
    "AlwaysRemote",
    "EntropyGated",
    "DeadlineAware",
    "TensorCodec",
    "POLICY_NAMES",
]

POLICY_NAMES = ("always-local", "always-remote", "entropy-gated", "deadline-aware")


@dataclass(frozen=True)
class OffloadContext:
    """What the engine knows about one request at decision time.

    ``est_local_s`` / ``est_remote_s`` are completion estimates *from
    arrival* (queueing included), built from the device model and the
    link's expected delivery — the same deterministic quantities the
    partition planner prices, so the deadline policy and the planner
    agree about what "slower" means.
    """

    entropy: float
    easy: bool
    est_local_s: float
    est_remote_s: float


class OffloadPolicy:
    """Base decider: one boolean per request, plus what an offload ships.

    ``payload`` is ``"split"`` (the stem activation at the partition
    boundary) or ``"input"`` (the raw image — full offloading);
    ``runs_gate`` tells the engine whether the edge pays the
    stem+branch+gate cost before the decision.
    """

    name: str = "policy"
    payload: str = "split"
    runs_gate: bool = True

    def offload(self, ctx: OffloadContext) -> bool:
        """True to ship the request upstream, False to finish locally."""
        raise NotImplementedError


class AlwaysLocal(OffloadPolicy):
    """Never offload: the paper's on-device operating mode."""

    name = "always-local"

    def offload(self, ctx: OffloadContext) -> bool:
        return False


class AlwaysRemote(OffloadPolicy):
    """Offload everything: ship raw inputs, skip edge compute entirely."""

    name = "always-remote"
    payload = "input"
    runs_gate = False

    def offload(self, ctx: OffloadContext) -> bool:
        return True


class EntropyGated(OffloadPolicy):
    """Offload exactly the entropy-flagged hard samples.

    ``threshold`` overrides the model's exit threshold for the *offload*
    decision only (the engine still uses the model's own threshold for
    prediction correctness) — the lever that trades uplink traffic for
    edge trunk work without retraining.
    """

    name = "entropy-gated"

    def __init__(self, threshold: float | None = None) -> None:
        if threshold is not None and not threshold >= 0:  # false for NaN too
            raise ValueError(f"entropy threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def offload(self, ctx: OffloadContext) -> bool:
        if self.threshold is None:
            return not ctx.easy
        return ctx.entropy >= self.threshold


class DeadlineAware(OffloadPolicy):
    """Entropy-gated with a link-health deadline check.

    Easy samples always exit on-device.  A hard sample ships while the
    estimated remote completion meets ``deadline_s`` (offloading spends
    plentiful link capacity instead of scarce edge compute, even when
    the remote path is per-request slower); when the link degrades past
    the deadline the sample ships only if remote still beats local —
    i.e. the policy collapses to always-local on a dead link and to
    entropy-gated on a healthy one.
    """

    name = "deadline-aware"

    def __init__(self, deadline_s: float) -> None:
        if not 0 < deadline_s < math.inf:
            raise ValueError(f"deadline_s must be positive and finite, got {deadline_s}")
        self.deadline_s = float(deadline_s)

    def offload(self, ctx: OffloadContext) -> bool:
        if ctx.easy:
            return False
        if ctx.est_remote_s <= self.deadline_s:
            return True
        return ctx.est_remote_s < ctx.est_local_s


@dataclass(frozen=True)
class TensorCodec:
    """Wire format for offloaded activation tensors.

    ``dtype`` ∈ {``"float32"``, ``"float16"``, ``"uint8"``,
    ``"kmeans8"``}.  ``uint8`` ships one affine code per element plus
    an 8-byte scale/zero header
    (:func:`repro.baselines.quantization.affine_quantize`); ``kmeans8``
    ships one code per element plus a 256-entry float32 codebook
    (:func:`repro.baselines.quantization.kmeans_quantize`) — only worth
    it for payloads well past 1 KB.  ``wire_bytes`` accounts both.
    """

    dtype: str = "float32"

    _BYTES_PER_ELEM = {"float32": 4.0, "float16": 2.0, "uint8": 1.0, "kmeans8": 1.0}
    _OVERHEAD_BYTES = {"float32": 0, "float16": 0, "uint8": 8, "kmeans8": 256 * 4}

    def __post_init__(self) -> None:
        if self.dtype not in self._BYTES_PER_ELEM:
            raise ValueError(
                f"unknown codec dtype {self.dtype!r}; "
                f"choose from {sorted(self._BYTES_PER_ELEM)}"
            )

    @property
    def bytes_per_elem(self) -> float:
        return self._BYTES_PER_ELEM[self.dtype]

    @property
    def overhead_bytes(self) -> int:
        """Fixed per-payload cost (affine header / k-means codebook)."""
        return self._OVERHEAD_BYTES[self.dtype]

    def wire_bytes(self, n_elems: int) -> int:
        """Total payload bytes for one ``n_elems`` tensor."""
        if n_elems < 0:
            raise ValueError(f"n_elems must be >= 0, got {n_elems}")
        return int(math.ceil(n_elems * self.bytes_per_elem)) + self.overhead_bytes

    def decode(self, tensor: np.ndarray) -> np.ndarray:
        """The float32 tensor the cloud sees after an encode/decode trip.

        float32 is the identity; float16 round-trips through the
        narrower dtype; uint8/kmeans8 return their quantized
        reconstructions.  The result is always a fresh contiguous
        float32 array.
        """
        tensor = np.asarray(tensor, dtype=np.float32)
        if self.dtype == "float32":
            return np.ascontiguousarray(tensor)
        if self.dtype == "float16":
            return np.ascontiguousarray(tensor.astype(np.float16).astype(np.float32))
        if self.dtype == "uint8":
            codes, scale, zero = affine_quantize(tensor, bits=8)
            return np.ascontiguousarray(affine_dequantize(codes, scale, zero))
        quantized, _ = kmeans_quantize(tensor, bits=8, rng=0, iterations=4)
        return np.ascontiguousarray(quantized)
