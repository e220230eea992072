"""Classification and latency metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "accuracy",
    "confusion_matrix",
    "per_class_accuracy",
    "speedup",
    "latency_percentiles",
    "LatencyStats",
]


def latency_percentiles(
    samples_s, qs: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> tuple[float, ...]:
    """Latency percentiles of a sample, as plain floats.

    The one place the repo computes sojourn/latency percentiles: the
    serving engine (:mod:`repro.serving.engine`), the cluster report
    (:mod:`repro.cluster.engine`), and :class:`LatencyStats` all call
    this instead of repeating ``np.percentile`` triplets.

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


def confusion_matrix(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int | None = None
) -> np.ndarray:
    """(K, K) counts, rows = true class, columns = predicted class."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    k = num_classes or int(max(predictions.max(initial=0), labels.max(initial=0))) + 1
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (labels, predictions), 1)
    return out


def per_class_accuracy(predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Accuracy per true class (NaN for classes absent from labels)."""
    cm = confusion_matrix(predictions, labels)
    totals = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, np.diag(cm) / totals, np.nan)


def speedup(baseline_latency: float, model_latency: float) -> float:
    """How many times faster than the baseline (paper's "N.NNx" numbers)."""
    if model_latency <= 0:
        raise ValueError(f"model latency must be positive, got {model_latency}")
    return baseline_latency / model_latency


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample (wall-clock benchmarking)."""

    mean: float
    p50: float
    p95: float
    minimum: float
    maximum: float
    n: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "LatencyStats":
        samples = np.asarray(samples, dtype=np.float64)
        p50, p95 = latency_percentiles(samples, (50.0, 95.0))
        return cls(
            mean=float(samples.mean()),
            p50=p50,
            p95=p95,
            minimum=float(samples.min()),
            maximum=float(samples.max()),
            n=int(samples.size),
        )
