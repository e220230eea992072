"""Hard-sample corruption operators.

The paper characterizes hard inputs as "low-resolution or blurry images
to complex images that are dissimilar to other images belonging to the
same class".  Each operator below implements one of those degradation
axes; a hard sample receives a random combination at a sampled severity.
All operators are vectorized over the batch axis and preserve [0, 1].
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "gaussian_blur",
    "additive_noise",
    "occlude",
    "elastic_warp",
    "low_resolution",
    "reduce_contrast",
    "scribble",
    "CORRUPTIONS",
    "corrupt_batch",
]

Array = np.ndarray


def gaussian_blur(images: Array, rng: np.random.Generator, severity: float) -> Array:
    """Blur: σ grows with severity (0.6 → 1.8 px)."""
    from scipy import ndimage  # loads only when a dataset is synthesized

    sigma = 0.6 + 1.2 * severity
    return ndimage.gaussian_filter(images, sigma=(0.0, sigma, sigma)).astype(np.float32)


def additive_noise(images: Array, rng: np.random.Generator, severity: float) -> Array:
    """Sensor-style Gaussian pixel noise."""
    std = 0.08 + 0.22 * severity
    noisy = images + rng.normal(0.0, std, size=images.shape).astype(np.float32)
    return np.clip(noisy, 0.0, 1.0)


def occlude(images: Array, rng: np.random.Generator, severity: float) -> Array:
    """Black out 1-2 random rectangles covering up to ~25% of the glyph."""
    n, h, w = images.shape
    out = images.copy()
    n_rects = 1 + int(severity > 0.5)
    rows = np.arange(h)
    cols = np.arange(w)
    for _ in range(n_rects):
        rh = rng.integers(max(2, int(0.10 * h)), max(3, int((0.14 + 0.18 * severity) * h)), n)
        rw = rng.integers(max(2, int(0.10 * w)), max(3, int((0.14 + 0.18 * severity) * w)), n)
        r0 = rng.integers(0, h - rh + 1)
        c0 = rng.integers(0, w - rw + 1)
        # Per-sample rectangles differ in size/place; broadcast row and
        # column interval masks and blank every rectangle in one write.
        row_mask = (rows[None, :] >= r0[:, None]) & (rows[None, :] < (r0 + rh)[:, None])
        col_mask = (cols[None, :] >= c0[:, None]) & (cols[None, :] < (c0 + rw)[:, None])
        out[row_mask[:, :, None] & col_mask[:, None, :]] = 0.0
    return out


def elastic_warp(images: Array, rng: np.random.Generator, severity: float) -> Array:
    """Elastic deformation (Simard et al.): smooth random displacement field.

    Fully batched: the smoothing filter and the resampling both run once
    over the whole (N, H, W) volume (a batch axis added to the coordinate
    grid keeps samples independent).
    """
    from scipy import ndimage  # loads only when a dataset is synthesized

    n, h, w = images.shape
    alpha = (2.0 + 4.0 * severity) * h / 28.0  # displacement magnitude, px
    sigma = 4.0
    dx = ndimage.gaussian_filter(rng.uniform(-1, 1, (n, h, w)), (0.0, sigma, sigma)) * alpha
    dy = ndimage.gaussian_filter(rng.uniform(-1, 1, (n, h, w)), (0.0, sigma, sigma)) * alpha
    b, rows, cols = np.meshgrid(
        np.arange(n), np.arange(h), np.arange(w), indexing="ij"
    )
    coords = np.stack([b, rows + dy, cols + dx])
    warped = ndimage.map_coordinates(images, coords, order=1, mode="constant")
    return warped.astype(np.float32)


def low_resolution(images: Array, rng: np.random.Generator, severity: float) -> Array:
    """Downsample then upsample (nearest) — the paper's "low-resolution" axis."""
    n, h, w = images.shape
    factor = 2 if severity < 0.6 else 3
    small = images[:, ::factor, ::factor]
    up = np.repeat(np.repeat(small, factor, axis=1), factor, axis=2)
    return up[:, :h, :w] if up.shape[1] >= h and up.shape[2] >= w else _pad_to(up, h, w)


def _pad_to(images: Array, h: int, w: int) -> Array:
    ph, pw = h - images.shape[1], w - images.shape[2]
    return np.pad(images, ((0, 0), (0, ph), (0, pw)))


def scribble(images: Array, rng: np.random.Generator, severity: float) -> Array:
    """Overlay 2-4 random distractor strokes.

    Models the paper's "complex images that are dissimilar to other images
    belonging to the same class": the glyph stays intact (so the class is
    recoverable by the converting autoencoder) but the clutter sharply
    raises the early-exit branch's prediction entropy.
    """
    from repro.data.synth import render  # local import avoids a cycle

    n, h, w = images.shape
    n_strokes = 2 + int(round(2 * severity))
    polys = []
    for _ in range(n_strokes):
        pts = rng.uniform(0.1, 0.9, size=(n, 3, 2)).astype(np.float32)
        polys.append(pts)
    thickness = rng.uniform(0.015, 0.015 + 0.02 * severity, n).astype(np.float32)
    overlay = render.raster_polylines(polys, thickness, side=h)
    strength = 0.5 + 0.5 * severity
    return np.clip(np.maximum(images, overlay * strength), 0.0, 1.0)


def reduce_contrast(images: Array, rng: np.random.Generator, severity: float) -> Array:
    """Compress the dynamic range toward mid-gray."""
    factor = 1.0 - (0.35 + 0.35 * severity)
    mean = images.mean(axis=(1, 2), keepdims=True)
    return np.clip(mean + (images - mean) * factor, 0.0, 1.0).astype(np.float32)


CORRUPTIONS: dict[str, Callable[[Array, np.random.Generator, float], Array]] = {
    "blur": gaussian_blur,
    "noise": additive_noise,
    "occlude": occlude,
    "elastic": elastic_warp,
    "lowres": low_resolution,
    "contrast": reduce_contrast,
    "scribble": scribble,
}


def corrupt_batch(
    images: Array,
    rng: np.random.Generator,
    severity_range: tuple[float, float] = (0.35, 1.0),
    ops_per_sample: tuple[int, int] = (1, 2),
    op_names: list[str] | None = None,
) -> Array:
    """Apply random corruption combos to a batch of (N, H, W) images.

    Samples are grouped by the drawn corruption recipe so each operator
    still runs vectorized over its group.
    """
    if images.ndim != 3:
        raise ValueError(f"expected (N, H, W), got shape {images.shape}")
    if images.shape[0] == 0:
        return images.copy()
    names = list(op_names or CORRUPTIONS.keys())
    unknown = set(names) - set(CORRUPTIONS)
    if unknown:
        raise KeyError(f"unknown corruption(s): {sorted(unknown)}")
    n = images.shape[0]
    out = images.copy()
    lo, hi = ops_per_sample
    counts = rng.integers(lo, hi + 1, size=n)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        # For each sample draw k distinct ops; group rows per op sequence slot.
        for slot in range(int(k)):
            chosen = rng.integers(0, len(names), size=rows.size)
            for op_idx in np.unique(chosen):
                grp = rows[chosen == op_idx]
                severity = float(rng.uniform(*severity_range))
                out[grp] = CORRUPTIONS[names[int(op_idx)]](out[grp], rng, severity)
    return np.clip(out, 0.0, 1.0)
