"""Array-level dataset transforms (all vectorized over the batch axis)."""

from __future__ import annotations

import numpy as np

__all__ = ["normalize", "flatten", "unflatten", "to_unit_sum", "from_unit_sum"]


def normalize(images: np.ndarray, mean: float, std: float) -> np.ndarray:
    """Standardize pixel values: (x - mean) / std."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    return ((images - mean) / std).astype(np.float32)


def flatten(images: np.ndarray) -> np.ndarray:
    """(N, C, H, W) → (N, C*H*W) — the MLP autoencoder's input layout."""
    return np.ascontiguousarray(images.reshape(images.shape[0], -1))


def unflatten(vectors: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """(N, D) → (N, C, H, W) given per-sample shape (C, H, W)."""
    c, h, w = shape
    if vectors.shape[1] != c * h * w:
        raise ValueError(f"cannot unflatten width {vectors.shape[1]} into {shape}")
    return np.ascontiguousarray(vectors.reshape(vectors.shape[0], c, h, w))


def to_unit_sum(images: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Scale each sample to sum 1 (probability-image representation).

    Needed when the autoencoder's output head is Softmax, as specified in
    the paper's Table I: a softmax layer emits a distribution over 784
    pixels, so reconstruction targets must live on the same simplex.
    """
    flat = images.reshape(images.shape[0], -1)
    sums = flat.sum(axis=1, keepdims=True)
    scaled = flat / np.maximum(sums, eps)
    return scaled.reshape(images.shape).astype(np.float32)


def from_unit_sum(images: np.ndarray) -> np.ndarray:
    """Rescale probability-images back to peak value 1 for display/classification."""
    flat = images.reshape(images.shape[0], -1)
    peak = flat.max(axis=1, keepdims=True)
    scaled = flat / np.maximum(peak, 1e-8)
    return scaled.reshape(images.shape).astype(np.float32)
