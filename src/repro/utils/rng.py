"""Deterministic random-number plumbing.

Every stochastic component in the library (dataset synthesis, weight
initialization, shuffling, target pairing) receives an explicit
:class:`numpy.random.Generator`.  Nothing touches the legacy global NumPy
RNG, so experiments are reproducible bit-for-bit from a single seed and
remain reproducible when stages run in parallel worker processes (each
work item derives its own seed with :func:`derive_seed`).
"""

from __future__ import annotations

from numbers import Integral
from typing import Sequence

import numpy as np

__all__ = ["as_generator", "derive_seed"]


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a non-deterministic generator (fresh OS entropy); an
    ``int`` produces a deterministic PCG64 stream; an existing generator is
    passed through unchanged so callers can thread one RNG through a
    pipeline.  Anything else (a negative or fractional seed, NaN) raises a
    ``ValueError`` naming ``rng``, the name every seeded constructor
    gives this argument.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if not (seed is None or (isinstance(seed, Integral) and seed >= 0)):
        raise ValueError(f"rng must be a Generator, an integer >= 0 or None, got {seed!r}")
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *components: int | str) -> int:
    """Derive a stable sub-seed from a base seed and a path of components.

    Gives stages of a pipeline (e.g. ``(seed, "fmnist", "train")``) distinct
    but reproducible streams without manual seed arithmetic.
    """
    entropy: list[int] = [int(base_seed) & 0xFFFFFFFF]
    for comp in components:
        if isinstance(comp, str):
            entropy.append(hash_string(comp))
        else:
            entropy.append(int(comp) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def hash_string(text: str) -> int:
    """Deterministic 32-bit FNV-1a hash (Python's ``hash`` is salted)."""
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


def stratified_indices(
    labels: Sequence[int] | np.ndarray,
    fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick a ``fraction``-sized subset of indices preserving class balance.

    Used by the scalability experiments (Figs 6-8), which require "the
    proportion of hard test images used in each experiment remained roughly
    the same" — stratification over any per-sample label achieves that.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    labels = np.asarray(labels)
    chosen: list[np.ndarray] = []
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        k = max(1, int(round(fraction * idx.size)))
        chosen.append(rng.choice(idx, size=min(k, idx.size), replace=False))
    out = np.concatenate(chosen)
    rng.shuffle(out)
    return out
