"""Multi-tenant request classes: per-class deadlines, priorities, weights.

Production serving fleets are shared by tenants with very different
contracts: *interactive* traffic must hit a tight per-request deadline,
*standard* traffic has a looser one, and *batch* traffic only cares
about throughput.  A :class:`RequestClass` makes that contract a
first-class spec — deadline, scheduling priority, weighted-fair
admission share, and an optional micro-batching wait cap — and a
:class:`ClassSet` is the ordered collection of classes one run serves.

The spec threads through the whole stack:

* :class:`~repro.serving.priority.PriorityBatcher` uses ``priority``
  (dispatch order) and the per-class wait cap (an urgent interactive
  arrival preempts a forming batch by pulling the flush deadline in);
* :class:`~repro.cluster.admission.WeightedFairAdmission` uses
  ``weight`` to grade shedding under overload (batch before standard
  before interactive) while reserving every class its weight share so
  no class is starved of admission;
* the report layer computes one :class:`ClassReport` per class —
  latency percentiles, deadline (SLO) attainment, shed rate — via
  :func:`per_class_reports`.

Requests carry their class as a small-int *code*: the index of the
class in its :class:`ClassSet` (mirrors the route-code scheme of
:mod:`repro.sim.records`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.eval.metrics import latency_percentiles
from repro.eval.tables import Table
from repro.sim.records import ROUTE_CACHED, ROUTE_SHED, RequestLog

__all__ = [
    "RequestClass",
    "ClassSet",
    "ClassReport",
    "DEFAULT_CLASSES",
    "default_classes",
    "per_class_reports",
    "class_table",
]


@dataclass(frozen=True)
class RequestClass:
    """One tenant class: its SLO contract and scheduling parameters.

    Attributes
    ----------
    name:
        Human-readable class name (``"interactive"``, ``"batch"``, ...).
    priority:
        Dispatch priority — **lower value wins**.  The priority batcher
        fills every flush from the highest-priority pending requests
        first, so no batch-class request is dispatched from a queue
        while an already-due interactive request waits in it.
    deadline_s:
        Per-request sojourn target (arrival → response).  Reports score
        each class's SLO attainment against its own deadline.
    weight:
        Weighted-fair admission share.  Under overload, a class may
        always use its ``weight / total_weight`` slice of the
        outstanding budget (the no-starvation reserve), while shedding
        beyond the graded caps hits low-priority classes first.
    max_wait_s:
        Optional micro-batching wait cap for this class (``None`` uses
        the engine's ``max_wait_s``).  A tight cap on the interactive
        class is what lets an urgent arrival preempt a forming batch.
        It must be finite: an infinite cap never flushes a partial
        batch of that class.
    """

    name: str
    priority: int
    deadline_s: float
    weight: float
    max_wait_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("request class needs a non-empty name")
        if not isinstance(self.priority, Integral):
            raise ValueError(f"priority must be an integer, got {self.priority}")
        if not 0 < self.deadline_s < math.inf:  # false for NaN too
            raise ValueError(f"deadline_s must be positive and finite, got {self.deadline_s}")
        if not 0 < self.weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {self.weight}")
        if self.max_wait_s is not None and not 0 <= self.max_wait_s < math.inf:
            raise ValueError(f"max_wait_s must be finite and >= 0, got {self.max_wait_s}")


class ClassSet:
    """An ordered set of :class:`RequestClass` specs for one run.

    The position of a class in the set is its **code** — the small int
    each request carries in ``RequestLog.req_class``.  Iteration order
    is construction order; scheduling order is ``by_priority``.
    """

    def __init__(self, classes) -> None:
        classes = tuple(classes)
        if not classes:
            raise ValueError("a ClassSet needs at least one RequestClass")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        self.classes = classes
        self._code = {c.name: i for i, c in enumerate(classes)}
        #: Class codes in dispatch order (priority asc, ties by code).
        self.by_priority = tuple(
            sorted(range(len(classes)), key=lambda i: (classes[i].priority, i))
        )
        total = sum(c.weight for c in classes)
        #: Normalized weighted-fair share per class code.
        self.shares = tuple(c.weight / total for c in classes)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, code: int) -> RequestClass:
        return self.classes[code]

    def code(self, name: str) -> int:
        """Class code for ``name`` (raises ``KeyError`` if absent)."""
        return self._code[name]

    def names(self) -> tuple[str, ...]:
        """Class names in code order."""
        return tuple(c.name for c in self.classes)

    def wait_caps(self, default_wait_s: float) -> tuple[float, ...]:
        """Effective per-class micro-batching wait cap, in code order."""
        return tuple(
            default_wait_s if c.max_wait_s is None else c.max_wait_s
            for c in self.classes
        )

    def validate_codes(self, codes, n: int) -> np.ndarray:
        """Check one per-request class-code array and normalize to int8."""
        codes = np.asarray(codes)
        if codes.shape != (n,):
            raise ValueError(
                f"request_classes must have shape ({n},), got {codes.shape}"
            )
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.classes)):
            raise ValueError(
                f"class codes must be in [0, {len(self.classes)}), "
                f"got range [{codes.min()}, {codes.max()}]"
            )
        return codes.astype(np.int8)


def default_classes(slo_s: float, max_wait_s: float = 0.004) -> ClassSet:
    """The canonical interactive / standard / batch mix, sized to an SLO.

    ``slo_s`` becomes the interactive deadline; standard gets 4x and
    batch 20x that budget, and the admission weights are 0.5, 0.3 and
    0.2.  The interactive wait cap is a quarter of the engine's
    batching wait (urgent arrivals preempt forming batches early),
    batch waits 4x longer (bigger, cheaper batches).
    """
    return ClassSet(
        (
            RequestClass(
                "interactive", 0, slo_s, 0.5, max_wait_s=0.25 * max_wait_s
            ),
            RequestClass("standard", 1, 4.0 * slo_s, 0.3),
            RequestClass("batch", 2, 20.0 * slo_s, 0.2, max_wait_s=4.0 * max_wait_s),
        )
    )


#: A generic three-class mix for tests and quick starts (deadlines in
#: seconds on the calibrated virtual clock).
DEFAULT_CLASSES = default_classes(slo_s=0.05)


@dataclass(frozen=True)
class ClassReport:
    """Per-class slice of one serving/cluster run."""

    name: str
    deadline_s: float
    n_requests: int
    n_served: int
    n_shed: int
    n_unserved: int
    n_degraded: int
    n_cached: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    slo_attainment: float
    accuracy: float = float("nan")

    @property
    def shed_rate(self) -> float:
        """Fraction of this class's requests rejected by admission."""
        return self.n_shed / self.n_requests if self.n_requests else 0.0


def per_class_reports(
    log: RequestLog, classes: ClassSet, labels: np.ndarray | None = None
) -> tuple[ClassReport, ...]:
    """One :class:`ClassReport` per class, reduced from the SoA log.

    SLO attainment counts a request as attained only when it completed
    within its class deadline — shed and stranded requests count
    against the class, exactly like the fleet-level SLO column.
    """
    codes = log.req_class
    done = log.done
    sojourn = log.sojourn_s
    labels = np.asarray(labels) if labels is not None else None
    reports = []
    for code, spec in enumerate(classes):
        mask = codes == code
        n = int(mask.sum())
        served = mask & done
        n_served = int(served.sum())
        cls_sojourn = sojourn[served]
        if n_served:
            p50, p95, p99 = latency_percentiles(cls_sojourn)
            mean_s = float(cls_sojourn.mean())
            attained = int((cls_sojourn <= spec.deadline_s).sum())
        else:
            p50 = p95 = p99 = mean_s = float("nan")
            attained = 0
        accuracy = float("nan")
        if labels is not None and n_served:
            accuracy = float((log.prediction[served] == labels[served]).mean())
        n_shed = int((log.route[mask] == ROUTE_SHED).sum())
        reports.append(
            ClassReport(
                name=spec.name,
                deadline_s=spec.deadline_s,
                n_requests=n,
                n_served=n_served,
                n_shed=n_shed,
                n_unserved=n - n_served - n_shed,
                n_degraded=int(log.degraded[mask].sum()),
                n_cached=int((log.route[mask] == ROUTE_CACHED).sum()),
                mean_s=mean_s,
                p50_s=p50,
                p95_s=p95,
                p99_s=p99,
                slo_attainment=attained / n if n else 0.0,
                accuracy=accuracy,
            )
        )
    return tuple(reports)


def class_table(runs, title: str = "") -> Table:
    """Render per-class rows for several runs side by side.

    ``runs`` is a sequence of ``(label, class_reports)`` pairs — e.g.
    the FIFO and priority runs of the tenants experiment.
    """
    table = Table(
        headers=[
            "run",
            "class",
            "reqs",
            "served",
            "shed",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "SLO",
            "acc",
        ],
        title=title,
    )
    for label, reports in runs:
        for r in reports:
            table.add_row(
                label,
                r.name,
                str(r.n_requests),
                str(r.n_served),
                f"{r.shed_rate:.1%}",
                "-" if np.isnan(r.p50_s) else f"{r.p50_s * 1e3:.2f}",
                "-" if np.isnan(r.p95_s) else f"{r.p95_s * 1e3:.2f}",
                "-" if np.isnan(r.p99_s) else f"{r.p99_s * 1e3:.2f}",
                f"{r.slo_attainment:.1%}",
                "-" if np.isnan(r.accuracy) else f"{r.accuracy:.1%}",
            )
    return table
