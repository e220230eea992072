"""`repro.cluster` — fleet-scale serving over heterogeneous replicas.

The layer above :mod:`repro.serving`: a shared arrival stream is
dispatched by a pluggable :class:`LoadBalancer` across a fleet of
replicas (each one a device-calibrated serving node with its own
micro-batcher and worker), while an SLO-driven :class:`Autoscaler`
grows and drains the fleet and an :class:`AdmissionController` sheds
load under overload — all on one deterministic virtual clock, with real
model predictions filled in afterwards.

Faults live in :mod:`repro.faults`: pass
``Cluster(faults=FaultPlan(...))`` to inject crash/recover cycles
(:func:`~repro.faults.crash_window`,
:func:`~repro.faults.poisson_failures`), slowdowns, partitions, and
flaky windows, and ``Cluster(resilience=ResilienceConfig(...))`` to
fight back with timeouts, retries, hedging, and per-replica circuit
breakers (:class:`ResilientBalancer`).

Quick tour::

    from repro.cluster import Cluster, AdmissionController
    from repro.serving import CBNetBackend, poisson_arrivals
    from repro.hw import device_profiles

    backends = [CBNetBackend(cbnet, dev) for dev in device_profiles().values()]
    cluster = Cluster(backends, policy="power-of-two",
                      admission=AdmissionController(max_outstanding=512),
                      slo_s=0.025, cache_capacity=256)
    report = cluster.serve(images, poisson_arrivals(3000.0, len(images), rng=0))
    print(report.summary())
"""

from repro.cluster.admission import (
    ACCEPT,
    DEGRADE,
    REJECT,
    AdmissionController,
    WeightedFairAdmission,
)
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.engine import Cluster, ClusterReport, fleet_comparison_table
from repro.cluster.policies import (
    POLICY_NAMES,
    JoinShortestQueue,
    LeastOutstanding,
    LoadBalancer,
    PowerOfTwoChoices,
    ResilientBalancer,
    RoundRobin,
    make_policy,
)
from repro.cluster.replica import InFlightBatch, Replica, ReplicaState

__all__ = [
    "Cluster",
    "ClusterReport",
    "fleet_comparison_table",
    "Replica",
    "ReplicaState",
    "InFlightBatch",
    "LoadBalancer",
    "RoundRobin",
    "LeastOutstanding",
    "JoinShortestQueue",
    "PowerOfTwoChoices",
    "ResilientBalancer",
    "POLICY_NAMES",
    "make_policy",
    "AdmissionController",
    "WeightedFairAdmission",
    "ACCEPT",
    "REJECT",
    "DEGRADE",
    "Autoscaler",
    "AutoscalerConfig",
]
