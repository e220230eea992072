"""Classification and latency metrics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "speedup",
    "latency_percentiles",
]


def latency_percentiles(
    samples_s, qs: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> tuple[float, ...]:
    """Latency percentiles of a sample, as plain floats.

    The one place the repo computes sojourn/latency percentiles: the
    fleet report and the autoscaler's latency signal
    (:mod:`repro.cluster.engine`), the per-class slices
    (:mod:`repro.serving.classes`)
    and the offload report (:mod:`repro.offload.engine`) all call this
    instead of repeating ``np.percentile`` triplets.

    Returns one float per entry of ``qs`` (default p50/p95/p99), so the
    common call site reads ``p50, p95, p99 = latency_percentiles(sojourn)``.
    """
    samples = np.asarray(samples_s, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("need at least one latency sample")
    if not qs:
        raise ValueError("need at least one percentile")
    return tuple(float(v) for v in np.percentile(samples, qs))


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of an empty prediction set")
    return float((predictions == labels).mean())


def speedup(baseline_latency: float, model_latency: float) -> float:
    """How many times faster than the baseline (paper's "N.NNx" numbers)."""
    if model_latency <= 0:
        raise ValueError(f"model latency must be positive, got {model_latency}")
    return baseline_latency / model_latency
