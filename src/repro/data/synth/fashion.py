"""Fashion-MNIST-like generator: 10 clothing-item silhouettes.

Classes follow the FMNIST ordering: 0 t-shirt, 1 trouser, 2 pullover,
3 dress, 4 coat, 5 sandal, 6 shirt, 7 sneaker, 8 bag, 9 ankle boot.
Each class is a union of filled primitives (polygons / ellipses) with
per-sample vertex jitter, affine deformation, and fabric-texture noise.
"""

from __future__ import annotations

import numpy as np

from repro.data.synth import render

__all__ = ["render_fashion", "NUM_CLASSES"]

NUM_CLASSES = 10


def _poly(*points: tuple[float, float]) -> np.ndarray:
    return np.asarray(points, dtype=np.float32)


def _class_primitives(label: int) -> tuple[list[np.ndarray], list[tuple]]:
    """Return (polygons, ellipses) for a class; ellipse = (cx,cy,rx,ry,ang)."""
    if label == 0:  # t-shirt: torso + short sleeves
        return (
            [
                _poly((0.36, 0.28), (0.64, 0.28), (0.66, 0.80), (0.34, 0.80)),
                _poly((0.18, 0.28), (0.36, 0.28), (0.36, 0.44), (0.14, 0.40)),
                _poly((0.64, 0.28), (0.82, 0.28), (0.86, 0.40), (0.64, 0.44)),
            ],
            [],
        )
    if label == 1:  # trouser: two legs + waistband
        return (
            [
                _poly((0.36, 0.18), (0.64, 0.18), (0.64, 0.28), (0.36, 0.28)),
                _poly((0.36, 0.28), (0.49, 0.28), (0.46, 0.84), (0.34, 0.84)),
                _poly((0.51, 0.28), (0.64, 0.28), (0.66, 0.84), (0.54, 0.84)),
            ],
            [],
        )
    if label == 2:  # pullover: torso + long sleeves
        return (
            [
                _poly((0.36, 0.26), (0.64, 0.26), (0.66, 0.80), (0.34, 0.80)),
                _poly((0.18, 0.26), (0.36, 0.26), (0.36, 0.78), (0.22, 0.78)),
                _poly((0.64, 0.26), (0.82, 0.26), (0.78, 0.78), (0.64, 0.78)),
            ],
            [],
        )
    if label == 3:  # dress: fitted top flaring to hem
        return (
            [
                _poly((0.42, 0.16), (0.58, 0.16), (0.60, 0.42), (0.40, 0.42)),
                _poly((0.40, 0.42), (0.60, 0.42), (0.72, 0.86), (0.28, 0.86)),
            ],
            [],
        )
    if label == 4:  # coat: long body + long sleeves + collar wedge
        return (
            [
                _poly((0.34, 0.22), (0.66, 0.22), (0.68, 0.86), (0.32, 0.86)),
                _poly((0.16, 0.24), (0.34, 0.22), (0.34, 0.80), (0.20, 0.80)),
                _poly((0.66, 0.22), (0.84, 0.24), (0.80, 0.80), (0.66, 0.80)),
            ],
            [],
        )
    if label == 5:  # sandal: sole bar + two thin straps
        return (
            [
                _poly((0.16, 0.62), (0.84, 0.60), (0.86, 0.72), (0.16, 0.74)),
                _poly((0.30, 0.40), (0.38, 0.38), (0.50, 0.62), (0.42, 0.63)),
                _poly((0.56, 0.36), (0.64, 0.36), (0.70, 0.60), (0.62, 0.62)),
            ],
            [],
        )
    if label == 6:  # shirt: torso + mid sleeves + dark placket gap drawn later
        return (
            [
                _poly((0.37, 0.24), (0.63, 0.24), (0.65, 0.82), (0.35, 0.82)),
                _poly((0.19, 0.24), (0.37, 0.24), (0.37, 0.58), (0.17, 0.54)),
                _poly((0.63, 0.24), (0.81, 0.24), (0.83, 0.54), (0.63, 0.58)),
            ],
            [],
        )
    if label == 7:  # sneaker: sole + low rounded upper
        return (
            [_poly((0.14, 0.66), (0.86, 0.64), (0.88, 0.76), (0.14, 0.78))],
            [(0.46, 0.58, 0.30, 0.14, -4.0)],
        )
    if label == 8:  # bag: body + handle ring
        return (
            [_poly((0.24, 0.42), (0.76, 0.42), (0.80, 0.82), (0.20, 0.82))],
            [(0.50, 0.38, 0.16, 0.14, 0.0)],  # handle; inner hole subtracted below
        )
    if label == 9:  # ankle boot: shaft + foot + sole
        return (
            [
                _poly((0.34, 0.24), (0.56, 0.24), (0.58, 0.58), (0.34, 0.58)),
                _poly((0.34, 0.58), (0.58, 0.58), (0.82, 0.66), (0.84, 0.78), (0.34, 0.78)),
            ],
            [],
        )
    raise ValueError(f"label must be 0-9, got {label}")


# Classes whose ellipse primitive is a *ring* (hole subtracted): bag handle.
_RING_CLASSES = {8}
# Shirt gets a vertical placket line (pixel-space) to separate it from t-shirt.
_PLACKET_CLASSES = {6}


def render_fashion(
    labels: np.ndarray,
    rng: np.random.Generator,
    side: int = 28,
    jitter: float = 1.0,
) -> np.ndarray:
    """Render clothing silhouettes for ``labels`` → (N, side, side)."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    out = np.zeros((n, side, side), dtype=np.float32)
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        polygons, ellipses = _class_primitives(int(label))
        mats = render.random_affine(
            rng,
            idx.size,
            max_rotate_deg=5.0 * jitter,
            scale_range=(1.0 - 0.10 * jitter, 1.0 + 0.10 * jitter),
            max_translate=0.04 * jitter,
            max_shear=0.06 * jitter,
        )
        mask = np.zeros((idx.size, side, side), dtype=bool)
        for poly in polygons:
            batch = np.broadcast_to(poly, (idx.size, *poly.shape)).copy()
            batch += rng.normal(0.0, 0.010 * jitter, size=batch.shape).astype(np.float32)
            mask |= render.fill_polygons(render.apply_affine(batch, mats), side=side)
        for cx, cy, rx, ry, ang in ellipses:
            params = np.tile(
                np.asarray([[cx, cy, rx, ry, ang]], dtype=np.float32), (idx.size, 1)
            )
            params[:, :2] += rng.normal(0.0, 0.008 * jitter, size=(idx.size, 2))
            params[:, 2:4] *= rng.uniform(
                1 - 0.08 * jitter, 1 + 0.08 * jitter, size=(idx.size, 2)
            )
            ell = render.fill_ellipses(params, side=side)
            if int(label) in _RING_CLASSES:
                inner = params.copy()
                inner[:, 2:4] *= 0.55
                ell &= ~render.fill_ellipses(inner, side=side)
            mask |= ell
        imgs = mask.astype(np.float32)
        if int(label) in _PLACKET_CLASSES:
            # Vertical gap down the torso — the feature separating "shirt"
            # from "t-shirt" silhouettes.
            col = (side // 2) + rng.integers(-1, 2, idx.size)
            rows = np.arange(int(0.28 * side), int(0.78 * side))
            imgs[np.arange(idx.size)[:, None], rows[None, :], col[:, None]] *= 0.25
        # Fabric texture + soft edges.
        imgs *= 0.82 + 0.18 * rng.random((idx.size, side, side)).astype(np.float32)
        out[idx] = render.smooth(imgs, sigma=0.55)
    return np.clip(out, 0.0, 1.0)
