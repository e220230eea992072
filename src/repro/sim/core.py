"""Shared trace plumbing for the serving / cluster / offload engines.

The three virtual-clock engines used to repeat the same preamble —
validate the (images, arrivals) pair, hash every request's image for the
result cache — with per-engine copies drifting apart.  This module is
the single home for that structure; the oracle path
(:mod:`repro.sim.oracle`) plugs in here too, because in oracle mode the
"image" array carries integer sample ids and the cache can key on the
ids themselves instead of hashing pixels.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["validate_trace", "request_keys"]


def validate_trace(
    images: np.ndarray, arrival_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Check one request trace and return it as normalized arrays.

    ``images`` is the per-request payload array — pixel batches for the
    live engines, 1-D sample ids in oracle mode; ``arrival_s`` must be
    non-empty, non-decreasing, free of NaN and ``-inf``, and aligned
    with it.  ``+inf`` stays legal: an edge tier can hand the cloud a
    request behind an outage window that never ends.
    """
    images = np.asarray(images)
    arrival_s = np.asarray(arrival_s, dtype=np.float64)
    if images.shape[0] != arrival_s.shape[0]:
        raise ValueError(
            f"{images.shape[0]} images vs {arrival_s.shape[0]} arrival times"
        )
    if arrival_s.size == 0:
        raise ValueError("cannot serve an empty request stream")
    # NaN fails every comparison, so the order check cannot see it; a
    # sorted trace can hold -inf only at its head.
    if np.isnan(arrival_s).any() or arrival_s[0] == -math.inf:
        raise ValueError("arrival times must not be NaN or -inf")
    if np.any(np.diff(arrival_s) < 0):
        raise ValueError("arrival times must be non-decreasing")
    return images, arrival_s


def request_keys(images: np.ndarray, oracle: bool) -> list:
    """Result-cache keys for one request stream.

    Live mode hashes each request's pixels (two requests carrying the
    same image hit regardless of identity); oracle mode uses the sample
    ids directly — same hit pattern, no hashing.
    """
    if oracle:
        return images.tolist()
    # Imported here (not at module top) so `import repro.sim` does not
    # recursively initialize the serving package that imports us back.
    from repro.serving.cache import image_key

    return [image_key(images[i]) for i in range(images.shape[0])]
