"""Admission control: what the cluster does when it cannot keep up.

Unbounded queues turn overload into unbounded latency; a production
front door bounds the queue and *sheds* instead.  The controller caps
total outstanding work across the fleet and applies one of two shedding
policies to arrivals beyond the cap:

* ``reject`` — turn the request away (it is never served; counts
  against availability and SLO attainment but keeps the queues, and
  therefore everyone else's tail, bounded);
* ``degrade`` — admit the request but force it down the early-exit /
  lightweight path (``RouteDecision.easy``), trading a little accuracy
  for a per-request service-time cut.  Only backends with dynamic
  routing have a cheaper path; for static pipelines (CBNet, LeNet)
  degrade admits at full cost, which the report makes visible via the
  degrade counter.

Multi-tenant fleets use :class:`WeightedFairAdmission` instead: the
same bounded-outstanding discipline, but the cap is *graded by class
priority* so overload sheds batch before standard before interactive,
while a per-class weight reserve keeps every class admissible — the
no-starvation half of the scheduling invariants
(``tests/scheduling``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AdmissionController",
    "WeightedFairAdmission",
    "ACCEPT",
    "REJECT",
    "DEGRADE",
]

ACCEPT = "accept"
REJECT = "reject"
DEGRADE = "degrade"


class AdmissionController:
    """Bound cluster-wide outstanding work; shed the excess.

    Parameters
    ----------
    max_outstanding:
        Admit a request only while the fleet's outstanding total
        (:meth:`~repro.cluster.engine.Cluster.outstanding_total`: queued
        + in service + stranded by crashes) is below this cap.  The
        total counts request *copies*: a hedged request counts twice
        while both copies live, and a copy cancelled by a timeout keeps
        counting in its queue until the flush that drops it.  ``0``
        disables admission control entirely.
    policy:
        ``"reject"`` or ``"degrade"`` — what happens to arrivals beyond
        the cap.
    """

    POLICIES = (REJECT, DEGRADE)

    def __init__(self, max_outstanding: int, policy: str = REJECT) -> None:
        if max_outstanding < 0:
            raise ValueError(f"max_outstanding must be >= 0, got {max_outstanding}")
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, got {policy!r}")
        self.max_outstanding = int(max_outstanding)
        self.policy = policy
        self.n_rejected = 0
        self.n_degraded = 0
        self.n_accepted = 0

    def decide(self, outstanding_total: int) -> str:
        """``ACCEPT``, ``REJECT``, or ``DEGRADE`` the arriving request."""
        if self.max_outstanding == 0 or outstanding_total < self.max_outstanding:
            self.n_accepted += 1
            return ACCEPT
        return self._shed()

    def decide_for(
        self,
        outstanding_total: int,
        cls: int,
        class_outstanding: np.ndarray | None,
    ) -> str:
        """Class-aware admission hook; the base controller is class-blind.

        The cluster engine always calls this entry point; subclasses
        (``WeightedFairAdmission``) override it to grade the decision by
        request class.
        """
        del cls, class_outstanding
        return self.decide(outstanding_total)

    def _shed(self) -> str:
        if self.policy == REJECT:
            self.n_rejected += 1
            return REJECT
        self.n_degraded += 1
        return DEGRADE

    @property
    def shed_rate(self) -> float:
        """Fraction of decisions that rejected the request outright."""
        total = self.n_accepted + self.n_rejected + self.n_degraded
        return self.n_rejected / total if total else 0.0


class WeightedFairAdmission(AdmissionController):
    """Priority-graded, weight-reserved admission for multi-tenant fleets.

    Two rules, evaluated per arriving request of class ``c`` against the
    outstanding budget ``M = max_outstanding``:

    * **graded cap** — admit while the fleet total is under
      ``cap_c = M * (sum of weights of classes no more urgent than c) / W``.
      The most urgent class sees the full budget ``M``; the least urgent
      only its own weight share — so as load grows, shedding starts with
      batch, then standard, and interactive sheds last;
    * **weight reserve** — even past its cap, class ``c`` is admitted
      while *its own* outstanding count is below
      ``reserve_c = max(1, floor(M * w_c / W))``.  This is the
      no-starvation guarantee: an interactive flood cannot push batch's
      admission rate to zero, because batch always owns its reserve
      slice of the queue.

    The reserves can briefly carry total outstanding past ``M`` (by at
    most the reserve sum, itself at most ``M``), which is the usual
    price of per-tenant guarantees on a shared budget.

    Parameters
    ----------
    classes:
        The fleet's :class:`~repro.serving.classes.ClassSet` (the same
        object passed to ``Cluster(classes=...)``).
    max_outstanding:
        Outstanding-work budget ``M``; ``0`` disables admission control.
    policy:
        ``"reject"`` or ``"degrade"``, as in the base controller.
    """

    def __init__(self, classes, max_outstanding: int, policy: str = REJECT) -> None:
        super().__init__(max_outstanding, policy)
        self.classes = classes
        m = self.max_outstanding
        caps, reserves = [], []
        for spec in classes:
            less_urgent_share = sum(
                share
                for other, share in zip(classes, classes.shares)
                if other.priority >= spec.priority
            )
            caps.append(m * less_urgent_share)
            reserves.append(max(1, int(m * classes.shares[classes.code(spec.name)])))
        #: Per-class-code graded total-outstanding caps.
        self.caps = tuple(caps)
        #: Per-class-code guaranteed outstanding slots.
        self.reserves = tuple(reserves)

    def decide_for(
        self,
        outstanding_total: int,
        cls: int,
        class_outstanding: np.ndarray | None,
    ) -> str:
        """Admit under the graded cap or the class's own reserve."""
        if self.max_outstanding == 0 or outstanding_total < self.caps[cls]:
            self.n_accepted += 1
            return ACCEPT
        if class_outstanding is not None and class_outstanding[cls] < self.reserves[cls]:
            self.n_accepted += 1
            return ACCEPT
        return self._shed()
