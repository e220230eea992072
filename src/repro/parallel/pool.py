"""Fork-based process pool with ordered results and graceful fallback.

Design notes (guide: mpi4py patterns — scatter work, gather results):

* ``fork`` start method shares the parent's NumPy arrays copy-on-write,
  so workers read large datasets without serialization cost.
* Results come back pickled through a ``multiprocessing.Pool``; they are
  small (metrics dataclasses), so the gather cost is negligible.
* For one item — or when the platform forbids fork — the map degrades to
  the serial path, which keeps unit tests hermetic and deterministic.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["worker_count", "parallel_map"]

_FORK_AVAILABLE = "fork" in mp.get_all_start_methods()


def worker_count(requested: int | None = None, n_items: int | None = None) -> int:
    """Resolve the worker count: explicit request, else CPU count, capped
    by the number of work items (idle workers are pure overhead)."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"worker count must be >= 1, got {requested}")
        n = requested
    else:
        n = os.cpu_count() or 1
        env = os.environ.get("REPRO_MAX_WORKERS")
        if env:
            n = min(n, max(1, int(env)))
    if n_items is not None:
        n = min(n, max(1, n_items))
    return n


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_workers: int | None = None,
    chunksize: int = 1,
) -> list[R]:
    """Ordered parallel map over ``items``.

    Falls back to a serial loop when only one worker is warranted or fork
    is unavailable.  ``fn`` and each item must be picklable in the
    parallel path (configs and seeds are; raw arrays should be shared via
    fork, i.e. captured in ``fn``'s closure *before* the pool starts).
    """
    items = list(items)
    n = worker_count(n_workers, len(items))
    if n <= 1 or not _FORK_AVAILABLE or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=n) as pool:
        return pool.map(fn, items, chunksize=max(1, chunksize))
