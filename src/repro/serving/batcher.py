"""Dynamic micro-batcher: size- and deadline-triggered flushes.

Batching amortizes the per-inference dispatch overhead (one
``inference_overhead_s`` per *batch* instead of per request), but holding
requests to fill a batch adds queueing delay.  The micro-batcher bounds
that delay: a batch flushes the moment it reaches ``max_batch_size`` OR
the moment its oldest request has waited ``max_wait_s`` — whichever
comes first.  This is the standard dynamic-batching policy of inference
servers (Triton, TF-Serving), implemented here over a virtual clock so
serving experiments stay deterministic.

:func:`repro.parallel.batcher.plan_batches` is the pure offline
counterpart: it computes the same grouping for a whole arrival trace at
once (assuming an always-ready server) and serves as the oracle in the
micro-batcher's tests.
"""

from __future__ import annotations

import math

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Accumulate request ids until a size or deadline trigger fires.

    The batcher is clock-agnostic: callers pass ``now`` explicitly, so it
    works identically on a simulated clock (the serving engine) and on
    wall time.

    Parameters
    ----------
    max_batch_size:
        Flush as soon as this many requests are pending (size trigger).
    max_wait_s:
        Flush as soon as the oldest pending request has waited this long
        (deadline trigger).  ``0`` degenerates to unbatched FIFO serving:
        every request flushes immediately.  It must be finite: an
        infinite cap never flushes a partial batch, and its requests
        would end the trace unserved.
    """

    def __init__(self, max_batch_size: int = 32, max_wait_s: float = 0.005) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if not 0 <= max_wait_s < math.inf:  # false for NaN too
            raise ValueError(f"max_wait_s must be finite and >= 0, got {max_wait_s}")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self._pending: list[int] = []
        self._oldest_s = math.inf

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    @property
    def deadline_s(self) -> float:
        """Virtual time at which the deadline trigger fires (``inf`` when
        empty — there is nothing to flush)."""
        if not self._pending:
            return math.inf
        return self._oldest_s + self.max_wait_s

    def add(self, req_id: int, now: float, cls: int = 0) -> None:
        """Admit one request at time ``now``.

        ``cls`` (the request-class code) is accepted for interface
        parity with :class:`~repro.serving.priority.PriorityBatcher`
        and ignored — FIFO batching is class-blind.
        """
        del cls
        if len(self._pending) >= self.max_batch_size:
            raise RuntimeError(
                "batcher is full — flush() must run before the next add()"
            )
        if not self._pending:
            self._oldest_s = now
        self._pending.append(req_id)

    def should_flush(self, now: float) -> bool:
        """True when either trigger has fired at time ``now``."""
        if not self._pending:
            return False
        return len(self._pending) >= self.max_batch_size or now >= self.deadline_s

    def flush(self) -> list[int]:
        """Return and clear the pending batch (caller decides *when*)."""
        batch, self._pending = self._pending, []
        self._oldest_s = math.inf
        return batch

    def drain(self) -> list[int]:
        """Return and clear everything pending (== ``flush`` here;
        :class:`~repro.serving.priority.PriorityBatcher` distinguishes
        the two)."""
        return self.flush()
