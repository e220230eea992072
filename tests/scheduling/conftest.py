"""Randomized multi-tenant scenarios for the scheduler-invariant harness.

Every test in this package runs against :func:`make_scenario` traces:
a small toy fleet (pixel-sum models, so predictions are checkable and
free), a Poisson overload trace, and a random three-class mix.  The
generator randomizes fleet size, service rates, batch/wait knobs, the
overload factor, and the class shares — the invariants must hold for
*all* of them, not for one tuned configuration.
"""

from dataclasses import dataclass

import numpy as np

from repro.cluster import AdmissionController, Cluster, WeightedFairAdmission
from repro.cluster.admission import REJECT
from repro.serving.arrivals import class_mix, poisson_arrivals
from repro.serving.backends import BatchTiming, InferenceBackend
from repro.serving.classes import ClassSet, default_classes
from repro.sim import oracle_backend

N_POOL = 48


class SumBackend(InferenceBackend):
    """Deterministic toy model: label = pixel-sum mod 10."""

    name = "sum"

    def __init__(self, per_item_s=0.001, overhead_s=0.001):
        super().__init__(BatchTiming(overhead_s=overhead_s, per_item_s=per_item_s))

    def predict(self, images, decision=None):
        return (images.reshape(images.shape[0], -1).sum(axis=1)).astype(np.int64) % 10


@dataclass
class Scenario:
    """One randomized trace plus everything needed to replay it."""

    seed: int
    images: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    arrival_s: np.ndarray
    codes: np.ndarray
    classes: ClassSet
    per_item: tuple
    max_batch: int
    max_wait_s: float
    max_outstanding: int

    @property
    def n(self) -> int:
        return len(self.ids)

    def backends(self):
        """A fresh toy fleet (one backend per replica)."""
        return [SumBackend(per_item_s=p) for p in self.per_item]


def make_scenario(seed, n_requests=None, overload=None) -> Scenario:
    """Build one randomized overloaded multi-tenant trace."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(300, 600)) if n_requests is None else n_requests
    n_replicas = int(rng.integers(1, 4))
    per_item = tuple(float(rng.uniform(0.0004, 0.0012)) for _ in range(n_replicas))
    max_batch = int(rng.choice([4, 8, 16]))
    max_wait_s = float(rng.uniform(0.002, 0.006))
    backends = [SumBackend(per_item_s=p) for p in per_item]
    capacity = sum(1.0 / b.mean_service_s(batch_size=max_batch) for b in backends)
    overload = float(rng.uniform(1.2, 2.0)) if overload is None else overload

    slowest = max(
        b.mean_service_s(batch_size=max_batch) * max_batch for b in backends
    )
    classes = default_classes(
        slo_s=3.0 * (slowest + max_wait_s), max_wait_s=max_wait_s
    )

    images = rng.random((N_POOL, 1, 4, 4)).astype(np.float32)
    labels = (images.reshape(N_POOL, -1).sum(axis=1)).astype(np.int64) % 10
    ids = rng.integers(0, N_POOL, size=n)
    arrival_s = poisson_arrivals(overload * capacity, n, rng=rng)
    shares = rng.dirichlet((4.0, 3.0, 2.0))
    codes = class_mix(n, shares, rng)
    # Guarantee every class occurs so per-class assertions never vacuously
    # pass on an empty class.
    codes[:3] = np.array([0, 1, 2], dtype=np.int8)
    return Scenario(
        seed=seed,
        images=images,
        labels=labels,
        ids=ids,
        arrival_s=arrival_s,
        codes=codes,
        classes=classes,
        per_item=per_item,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
        max_outstanding=int(rng.integers(4, 10)) * max_batch * n_replicas,
    )


def build_cluster(
    sc: Scenario,
    scheduler: str = "priority",
    admission: str = "fair",
    oracle: bool = False,
    faults=None,
) -> Cluster:
    """Assemble a cluster for one scenario arm."""
    if admission == "fair":
        ctrl = WeightedFairAdmission(sc.classes, max_outstanding=sc.max_outstanding)
    elif admission == "reject":
        ctrl = AdmissionController(max_outstanding=sc.max_outstanding, policy=REJECT)
    elif admission is None:
        ctrl = None
    else:
        raise ValueError(admission)
    backends = sc.backends()
    if oracle:
        backends = [oracle_backend(b, sc.images) for b in backends]
    return Cluster(
        backends,
        policy="least-outstanding",
        admission=ctrl,
        faults=faults,
        slo_s=sc.classes[0].deadline_s,
        classes=sc.classes,
        scheduler=scheduler,
        max_batch_size=sc.max_batch,
        max_wait_s=sc.max_wait_s,
        cache_capacity=0,
        rng=sc.seed,
    )


def run_scenario(sc, scheduler="priority", admission="fair", oracle=False, faults=None):
    """Serve one scenario arm; returns (report, finished requests)."""
    cluster = build_cluster(
        sc, scheduler=scheduler, admission=admission, oracle=oracle, faults=faults
    )
    stream = sc.ids if oracle else sc.images[sc.ids]
    return cluster.serve_detailed(
        stream, sc.arrival_s, labels=sc.labels[sc.ids], request_classes=sc.codes
    )
