"""Priority-aware micro-batching for multi-tenant serving.

:class:`PriorityBatcher` is the scheduling half of the request-class
story (:mod:`repro.serving.classes`).  It keeps one FIFO queue per
class and differs from the single-queue
:class:`~repro.serving.batcher.MicroBatcher` in three ways:

* **unbounded pending** — requests queue here (not in an implicit
  "worker is busy" limbo), so under overload the queue genuinely holds
  more than one batch and flush-time ordering matters;
* **priority-first flushes** — each flush takes up to
  ``max_batch_size`` requests, filling from the most urgent class
  first (FIFO within a class) and *retaining* the leftover.  This is
  what makes the priority-ordering invariant hold by construction: a
  batch-class request can only ride a flush after every pending
  interactive request boarded;
* **per-class wait caps** — each class has its own deadline trigger
  (``RequestClass.max_wait_s``).  A tight interactive cap *preempts a
  forming batch*: the batcher may be sitting on a half-formed batch of
  batch-class work whose deadline is far out, and one interactive
  arrival pulls the next flush to ``now + interactive_wait``, boarding
  immediately ahead of the work that was queued first.

The batcher stays clock-agnostic (callers pass ``now``), exactly like
the FIFO micro-batcher, so oracle and live engines drive it
identically.
"""

from __future__ import annotations

import math
from collections import deque

from repro.serving.classes import ClassSet

__all__ = ["PriorityBatcher"]


class PriorityBatcher:
    """Per-class FIFO queues with priority-first, size-capped flushes.

    Parameters
    ----------
    classes:
        The run's :class:`~repro.serving.classes.ClassSet`; its
        ``by_priority`` order is the flush fill order.
    max_batch_size:
        Cap on requests per flush (the micro-batch size).
    max_wait_s:
        Default deadline trigger, used for classes whose
        ``max_wait_s`` is ``None``.  Finite and >= 0, like
        :class:`~repro.serving.batcher.MicroBatcher`'s.
    ordering:
        ``"priority"`` (the point of this class) or ``"fifo"`` — the
        control arm for scheduler comparisons: identical queueing
        structure, but flushes fill in global enqueue order and every
        class shares the default wait cap (class-blind), so the *only*
        difference between the two arms is the scheduling discipline.
    """

    def __init__(
        self,
        classes: ClassSet,
        max_batch_size: int = 32,
        max_wait_s: float = 0.005,
        ordering: str = "priority",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if not 0 <= max_wait_s < math.inf:  # false for NaN too
            raise ValueError(f"max_wait_s must be finite and >= 0, got {max_wait_s}")
        if ordering not in ("priority", "fifo"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.classes = classes
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.ordering = ordering
        if ordering == "fifo":
            self._wait = (self.max_wait_s,) * len(classes)
        else:
            self._wait = classes.wait_caps(self.max_wait_s)
        # One FIFO of (req_id, enqueue_s) per class code.
        self._queues: tuple[deque, ...] = tuple(deque() for _ in classes)
        self._n_pending = 0

    def __len__(self) -> int:
        return self._n_pending

    def __bool__(self) -> bool:
        return self._n_pending > 0

    def queue_depth(self, cls: int) -> int:
        """Pending requests of one class."""
        return len(self._queues[cls])

    @property
    def deadline_s(self) -> float:
        """Earliest deadline trigger across classes (``inf`` if empty).

        Each non-empty class fires at ``oldest_enqueue + class_wait``;
        the batcher's next deadline is the minimum — which is how a
        fresh interactive arrival with a tight wait cap preempts a
        forming batch of lower-priority work.
        """
        deadline = math.inf
        for cls, q in enumerate(self._queues):
            if q:
                deadline = min(deadline, q[0][1] + self._wait[cls])
        return deadline

    def add(self, req_id: int, now: float, cls: int = 0) -> None:
        """Enqueue one request of class ``cls`` at time ``now``."""
        self._queues[cls].append((req_id, now))
        self._n_pending += 1

    def should_flush(self, now: float) -> bool:
        """True when a full batch is pending or any class deadline hit."""
        if not self._n_pending:
            return False
        return self._n_pending >= self.max_batch_size or now >= self.deadline_s

    def flush(self) -> list[int]:
        """Form one batch: up to ``max_batch_size`` ids, priority first.

        Fills from the most urgent class (FIFO within each class) and
        leaves the rest queued — under overload lower-priority classes
        wait for a later flush.  In ``"fifo"`` ordering the fill is
        global enqueue order instead (class-blind head-of-line).
        """
        if self.ordering == "fifo":
            return self._flush_fifo()
        batch: list[int] = []
        room = self.max_batch_size
        for cls in self.classes.by_priority:
            q = self._queues[cls]
            while q and room:
                batch.append(q.popleft()[0])
                room -= 1
            if not room:
                break
        self._n_pending -= len(batch)
        return batch

    def _flush_fifo(self) -> list[int]:
        """Fill one batch in global enqueue order (the control arm)."""
        batch: list[int] = []
        for _ in range(min(self.max_batch_size, self._n_pending)):
            # Oldest head across class queues; ties break on req_id so
            # same-instant arrivals keep submission order.
            cls = min(
                (c for c, q in enumerate(self._queues) if q),
                key=lambda c: self._queues[c][0][::-1],
            )
            batch.append(self._queues[cls].popleft()[0])
        self._n_pending -= len(batch)
        return batch

    def drain(self) -> list[int]:
        """Return and clear *everything* pending, in enqueue order.

        Used by crash cancellation: a dying replica must surrender all
        queued requests for re-dispatch, not just one batch's worth.
        """
        items = [item for q in self._queues for item in q]
        items.sort(key=lambda it: (it[1], it[0]))
        for q in self._queues:
            q.clear()
        self._n_pending = 0
        return [req_id for req_id, _ in items]
