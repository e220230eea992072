"""Weight initializers (Glorot/He/LeCun) with explicit RNG threading."""

from __future__ import annotations

import numpy as np

__all__ = ["glorot_uniform", "he_normal", "zeros", "fan_in_out"]


def fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense (out, in) or conv (F, C, KH, KW)."""
    if len(shape) == 2:
        out_features, in_features = shape
        return in_features, out_features
    if len(shape) == 4:
        f, c, kh, kw = shape
        receptive = kh * kw
        return c * receptive, f * receptive
    if len(shape) == 1:
        return shape[0], shape[0]
    raise ValueError(f"unsupported parameter shape {shape}")


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform — Keras's default, hence the paper's default."""
    fan_in, fan_out = fan_in_out(shape)
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He normal — preferred for ReLU stacks (conv trunks)."""
    fan_in, _ = fan_in_out(shape)
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zero-initialized float32 parameter array (biases)."""
    return np.zeros(shape, dtype=np.float32)
