"""Offline batch planning: the micro-batcher's trace-level mirror."""

from __future__ import annotations

from typing import Sequence

__all__ = ["plan_batches"]


def plan_batches(
    arrival_s: Sequence[float], max_batch_size: int, max_wait_s: float
) -> list[list[int]]:
    """Offline micro-batch plan for a sorted arrival-time trace.

    Groups request indices exactly as a size/deadline micro-batcher with
    an always-ready server would: a batch closes when it holds
    ``max_batch_size`` requests or when the next arrival lands at or
    after the moment the first member has waited ``max_wait_s``.  This is the pure,
    trace-level counterpart of :class:`repro.serving.batcher.MicroBatcher`
    (which runs the same policy online against a virtual clock) and the
    oracle its tests compare against.
    """
    if max_batch_size < 1:
        raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
    if max_wait_s < 0:
        raise ValueError(f"max_wait_s must be non-negative, got {max_wait_s}")
    batches: list[list[int]] = []
    current: list[int] = []
    deadline = float("inf")
    for i, t in enumerate(arrival_s):
        if current and t >= deadline:
            batches.append(current)
            current = []
        if not current:
            deadline = float(t) + max_wait_s
        current.append(i)
        if len(current) >= max_batch_size:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches
