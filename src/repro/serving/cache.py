"""In-memory LRU result cache keyed by image content hash.

Real request streams repeat (hot items dominate — see
:func:`repro.serving.arrivals.zipf_popularity`); an exact-match cache
turns every repeat into a queue bypass that costs one hash instead of a
full inference.  Keys are content hashes of the raw image bytes, so two
requests carrying the same pixels hit regardless of request identity.

This is the *serving-time* sibling of :class:`repro.utils.cache.ArtifactCache`
(which stores trained models on disk): bounded, in-memory, and
recency-evicting, because a serving process cannot hold every answer it
ever produced.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from numbers import Integral
from typing import Any

import numpy as np

__all__ = ["image_key", "LRUResultCache"]


def image_key(image: np.ndarray) -> str:
    """Content hash of one image (shape- and dtype-sensitive)."""
    arr = np.ascontiguousarray(image)
    h = hashlib.blake2b(digest_size=16)
    h.update(str((arr.shape, arr.dtype.str)).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


class LRUResultCache:
    """Bounded mapping from image key → stored result, LRU eviction.

    ``capacity=0`` disables the cache entirely (every lookup misses,
    nothing is stored) so the engine can treat "no cache" uniformly.
    Hit/miss/eviction counters feed the serving report.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if not (isinstance(capacity, Integral) and capacity >= 0):
            raise ValueError(f"capacity must be an integer >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._store: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str) -> Any | None:
        """Look up ``key``; bump its recency on a hit, count the outcome."""
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return self._store[key]
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        """Insert/refresh ``key``, evicting the least-recent entry if full."""
        if self.capacity == 0:
            return
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = value
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0
