"""Batched rasterization primitives for the synthetic datasets.

Everything here is vectorized over a *batch* of samples at once: a chunk
of N glyphs is rendered with O(edges) NumPy calls total, not O(N).  The
inner data layout keeps the pixel axis contiguous so the distance
reductions stream through cache (guide: contiguous access, vectorize).

Coordinate convention: the canvas is the unit square, ``x`` rightward,
``y`` downward; pixel centers sit at ``(i + 0.5) / side``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pixel_grid",
    "sample_arc",
    "raster_polylines",
    "fill_polygons",
    "fill_ellipses",
    "random_affine",
    "apply_affine",
    "smooth",
]

DEFAULT_SIDE = 28


def pixel_grid(side: int = DEFAULT_SIDE) -> np.ndarray:
    """(side*side, 2) array of pixel-center coordinates in [0, 1]^2."""
    centers = (np.arange(side, dtype=np.float32) + 0.5) / side
    xx, yy = np.meshgrid(centers, centers)  # yy rows, xx cols
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def sample_arc(
    center: tuple[float, float],
    rx: float,
    ry: float,
    theta0: float,
    theta1: float,
    n: int = 20,
) -> np.ndarray:
    """Sample an elliptical arc into an (n, 2) polyline.

    Angles in degrees; theta=0 points right, positive angles rotate toward
    +y (downward on the canvas).
    """
    t = np.radians(np.linspace(theta0, theta1, n, dtype=np.float32))
    return np.stack(
        [center[0] + rx * np.cos(t), center[1] + ry * np.sin(t)], axis=1
    ).astype(np.float32)


def raster_polylines(
    polylines: list[np.ndarray],
    thickness: np.ndarray | float,
    side: int = DEFAULT_SIDE,
    softness: float = 0.35,
) -> np.ndarray:
    """Render a batch of stroke glyphs.

    Parameters
    ----------
    polylines:
        list of arrays, each shaped (N, P_i, 2): the same stroke across the
        batch (per-sample jittered control points).
    thickness:
        stroke half-width in canvas units; scalar or per-sample (N,).
    softness:
        edge softness as a fraction of the thickness (anti-aliasing).

    Returns
    -------
    (N, side, side) float32 intensities in [0, 1].
    """
    if not polylines:
        raise ValueError("need at least one polyline")
    n = polylines[0].shape[0]
    thickness = np.asarray(thickness, dtype=np.float32).reshape(-1, 1)
    if thickness.shape[0] not in (1, n):
        raise ValueError(f"thickness batch {thickness.shape[0]} incompatible with N={n}")

    centers = (np.arange(side, dtype=np.float32) + 0.5) / side
    gx_row = centers[None, None, :]  # (1, 1, side) — pixel-center x per column
    gy_col = centers[None, :, None]  # (1, side, 1) — pixel-center y per row
    # Track squared distance; one sqrt at the end.  Each segment only
    # matters inside its stroke envelope: a pixel farther than
    # ``thickness * (1 + softness)`` renders 0 whatever its exact
    # distance, so the per-segment work is clipped to the segment's
    # bounding box plus that cutoff (a few pixels around the ink instead
    # of the whole canvas).  Inside the box the arithmetic is unchanged,
    # so the rendered glyph is bit-identical to the full-grid sweep.
    cutoff = float(thickness.max()) * (1.0 + softness) + 2.0 / side
    min_d2 = np.full((n, side, side), np.inf, dtype=np.float32)
    for poly in polylines:
        if poly.shape[0] != n:
            raise ValueError("all polylines must share the batch dimension")
        if poly.shape[1] < 2:
            raise ValueError("polylines need at least 2 points")
        poly = poly.astype(np.float32, copy=False)
        px = poly[..., 0]
        py = poly[..., 1]
        # Per-segment bounding boxes over the whole batch, in pixel rows
        # and columns (pixel i spans canvas [i/side, (i+1)/side]).
        seg_x = np.stack([px[:, :-1], px[:, 1:]])  # (2, N, S)
        seg_y = np.stack([py[:, :-1], py[:, 1:]])
        c_lo = np.clip(
            np.floor((seg_x.min(axis=(0, 1)) - cutoff) * side).astype(np.int64), 0, side
        )
        c_hi = np.clip(
            np.ceil((seg_x.max(axis=(0, 1)) + cutoff) * side).astype(np.int64), 0, side
        )
        r_lo = np.clip(
            np.floor((seg_y.min(axis=(0, 1)) - cutoff) * side).astype(np.int64), 0, side
        )
        r_hi = np.clip(
            np.ceil((seg_y.max(axis=(0, 1)) + cutoff) * side).astype(np.int64), 0, side
        )
        for s in range(poly.shape[1] - 1):
            r0, r1, c0, c1 = r_lo[s], r_hi[s], c_lo[s], c_hi[s]
            if r0 >= r1 or c0 >= c1:
                continue
            ax = px[:, s][:, None, None]
            ay = py[:, s][:, None, None]
            abx = px[:, s + 1][:, None, None] - ax
            aby = py[:, s + 1][:, None, None] - ay
            ab_len2 = np.maximum(abx * abx + aby * aby, np.float32(1e-12))
            pax = gx_row[:, :, c0:c1] - ax  # (N, 1, C)
            pay = gy_col[:, r0:r1, :] - ay  # (N, R, 1)
            t = np.clip((pax * abx + pay * aby) / ab_len2, 0.0, 1.0)  # (N, R, C)
            dx = pax - t * abx
            dy = pay - t * aby
            window = min_d2[:, r0:r1, c0:c1]
            np.minimum(window, dx * dx + dy * dy, out=window)
    min_dist = np.sqrt(min_d2, out=min_d2).reshape(n, side * side)

    edge = np.maximum(thickness * softness, 1e-4)
    intensity = np.clip((thickness - min_dist) / edge + 1.0, 0.0, 1.0)
    return intensity.reshape(n, side, side).astype(np.float32)


def fill_polygons(vertices: np.ndarray, side: int = DEFAULT_SIDE) -> np.ndarray:
    """Even-odd-rule polygon fill for a batch of polygons.

    ``vertices``: (N, V, 2).  Returns boolean masks (N, side, side).
    Vectorized ray casting: the loop runs over the V edges, not pixels.
    """
    if vertices.ndim != 3 or vertices.shape[2] != 2:
        raise ValueError(f"vertices must be (N, V, 2), got {vertices.shape}")
    n, v, _ = vertices.shape
    grid = pixel_grid(side)
    px = grid[:, 0][None, :]  # (1, HW)
    py = grid[:, 1][None, :]
    inside = np.zeros((n, grid.shape[0]), dtype=bool)
    for i in range(v):
        x1 = vertices[:, i, 0][:, None]
        y1 = vertices[:, i, 1][:, None]
        x2 = vertices[:, (i + 1) % v, 0][:, None]
        y2 = vertices[:, (i + 1) % v, 1][:, None]
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (px < x_at)
    return inside.reshape(n, side, side)


def fill_ellipses(params: np.ndarray, side: int = DEFAULT_SIDE) -> np.ndarray:
    """Filled (optionally rotated) ellipses.

    ``params``: (N, 5) columns = cx, cy, rx, ry, angle_degrees.
    Returns boolean masks (N, side, side).
    """
    if params.ndim != 2 or params.shape[1] != 5:
        raise ValueError(f"params must be (N, 5), got {params.shape}")
    grid = pixel_grid(side)
    cx, cy, rx, ry, ang = (params[:, i][:, None] for i in range(5))
    theta = np.radians(ang)
    dx = grid[None, :, 0] - cx
    dy = grid[None, :, 1] - cy
    # Rotate into the ellipse frame.
    ux = dx * np.cos(theta) + dy * np.sin(theta)
    uy = -dx * np.sin(theta) + dy * np.cos(theta)
    mask = (ux / np.maximum(rx, 1e-6)) ** 2 + (uy / np.maximum(ry, 1e-6)) ** 2 <= 1.0
    return mask.reshape(params.shape[0], side, side)


def random_affine(
    rng: np.random.Generator,
    n: int,
    max_rotate_deg: float = 8.0,
    scale_range: tuple[float, float] = (0.9, 1.1),
    max_translate: float = 0.04,
    max_shear: float = 0.08,
) -> np.ndarray:
    """Sample (N, 2, 3) affine matrices for per-sample glyph jitter.

    Transforms are applied about the canvas center so glyphs stay framed.
    """
    theta = np.radians(rng.uniform(-max_rotate_deg, max_rotate_deg, n))
    scale = rng.uniform(scale_range[0], scale_range[1], n)
    shear = rng.uniform(-max_shear, max_shear, n)
    tx = rng.uniform(-max_translate, max_translate, n)
    ty = rng.uniform(-max_translate, max_translate, n)

    cos_t, sin_t = np.cos(theta) * scale, np.sin(theta) * scale
    mats = np.zeros((n, 2, 3), dtype=np.float32)
    mats[:, 0, 0] = cos_t
    mats[:, 0, 1] = -sin_t + shear * cos_t
    mats[:, 1, 0] = sin_t
    mats[:, 1, 1] = cos_t + shear * sin_t
    # Recenter: p' = A (p - c) + c + t, folded into the translation column.
    cx = cy = 0.5
    mats[:, 0, 2] = cx - (mats[:, 0, 0] * cx + mats[:, 0, 1] * cy) + tx
    mats[:, 1, 2] = cy - (mats[:, 1, 0] * cx + mats[:, 1, 1] * cy) + ty
    return mats


def apply_affine(points: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Apply per-sample affines: points (N, P, 2) x mats (N, 2, 3) → (N, P, 2)."""
    if points.shape[0] != mats.shape[0]:
        raise ValueError(
            f"batch mismatch: points N={points.shape[0]}, mats N={mats.shape[0]}"
        )
    rotated = np.einsum("nij,npj->npi", mats[:, :, :2], points)
    return (rotated + mats[:, None, :, 2]).astype(np.float32)


def smooth(images: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur over the spatial axes of an (N, H, W) batch."""
    if sigma <= 0:
        return images.astype(np.float32)
    from scipy import ndimage  # loads only when a dataset is synthesized

    return ndimage.gaussian_filter(images, sigma=(0.0, sigma, sigma)).astype(np.float32)
