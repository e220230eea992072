"""Fleet experiment: balancing policies, autoscaling, and failures.

Extends the single-server comparison of :mod:`repro.experiments.serve`
to the cluster layer (:mod:`repro.cluster`).  Three studies share one
trained pipeline:

* **policy grid** — the four balancing policies dispatch identical
  Zipf-skewed request streams across a heterogeneous CBNet fleet (one
  replica per calibrated testbed: Pi 4 / GCI-CPU / GCI-K80) under
  ``steady``, ``diurnal``, and ``flash-crowd`` load.  Round-robin feeds
  the Pi the same share as the K80 and its tail shows it; power-of-two
  probes its way to near least-outstanding tails at two signals per
  request.
* **autoscaler** — a fixed peak-sized homogeneous fleet vs. a reactive
  autoscaler growing/draining the same unit under the diurnal cycle:
  the SLO-attainment and replica-seconds columns make the "as good for
  less cost" trade directly readable.
* **failure injection** — the fleet loses its fastest replica
  mid-trace (crash + recover) behind degrade-mode admission control,
  so the report covers availability, retries, and graceful degradation
  rather than latency alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.cluster.admission import AdmissionController
from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.engine import Cluster, ClusterReport, fleet_comparison_table
from repro.cluster.policies import POLICY_NAMES
from repro.experiments.common import pipeline_for, scale_for
from repro.faults import FaultPlan, crash_window
from repro.hw.devices import device_profiles
from repro.parallel.pool import parallel_map
from repro.serving.arrivals import (
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
    zipf_popularity,
)
from repro.serving.backends import BranchyNetBackend, CBNetBackend, InferenceBackend
from repro.sim import oracle_backend
from repro.utils.rng import as_generator, derive_seed

__all__ = ["FLEET_SCENARIOS", "FleetSpec", "FleetComparison", "run_fleet_comparison"]

FLEET_SCENARIOS = ("steady", "diurnal", "flash-crowd")


@dataclass(frozen=True)
class FleetSpec:
    """The hardware side of one fleet experiment.

    ``backends`` is the heterogeneous base fleet for the policy grid and
    failure study; ``spawn_backend`` builds the homogeneous scaling unit
    the autoscaler study grows and drains; ``degrade_backends`` (when
    given) is the dynamically-routed fleet used by the failure study so
    degrade-mode admission has a genuinely cheaper path to force.
    """

    backends: tuple[InferenceBackend, ...]
    spawn_backend: Callable[[], InferenceBackend]
    degrade_backends: tuple[InferenceBackend, ...] = ()
    max_batch_size: int = 8
    max_wait_s: float = 0.004

    def capacity_hz(self) -> float:
        """Aggregate base-fleet service capacity at full batches."""
        return sum(
            1.0 / b.mean_service_s(batch_size=self.max_batch_size)
            for b in self.backends
        )

    def unit_rate_hz(self) -> float:
        """Service capacity of one autoscaler unit at full batches."""
        return 1.0 / self.spawn_backend().mean_service_s(
            batch_size=self.max_batch_size
        )


@dataclass
class FleetComparison:
    """All three fleet studies plus the context that sized the load."""

    dataset: str
    n_requests: int
    capacity_hz: float
    slo_s: float
    policy_reports: dict[str, list[ClusterReport]]
    autoscaler_reports: list[ClusterReport]
    failure_report: ClusterReport

    def render(self) -> str:
        """Human-readable block of tables, one per study."""
        blocks = []
        for scenario, reports in self.policy_reports.items():
            rate = reports[0].arrival_rate_hz
            title = (
                f"Fleet policies ({self.dataset}) — {scenario} @ {rate:.0f} req/s, "
                f"SLO {self.slo_s * 1e3:.0f} ms, {reports[0].n_replicas_start} replicas"
            )
            blocks.append(fleet_comparison_table(reports, title).render())
        if self.autoscaler_reports:
            fixed, auto = self.autoscaler_reports
            title = (
                f"Autoscaler vs fixed fleet ({self.dataset}) — diurnal load, "
                f"fixed {fixed.n_replicas_start} vs auto "
                f"{auto.n_replicas_start}..{auto.peak_replicas} replicas "
                f"({auto.scale_ups} up / {auto.scale_downs} down)"
            )
            blocks.append(
                fleet_comparison_table([fixed, auto], title).render()
                + "\n"
                + (
                    f"autoscaled: {auto.replica_seconds:.2f} replica-s at "
                    f"{auto.slo_attainment:.1%} SLO vs fixed "
                    f"{fixed.replica_seconds:.2f} replica-s at "
                    f"{fixed.slo_attainment:.1%}"
                )
            )
        if self.failure_report is not None:
            r = self.failure_report
            title = (
                f"Failure injection ({self.dataset}) — fastest replica crashes "
                f"mid-trace, degrade-mode admission "
                f"({r.n_retried} retried, {r.n_degraded} degraded, "
                f"{r.n_crashes} crash)"
            )
            blocks.append(fleet_comparison_table([r], title).render())
        return "\n\n".join(blocks)

    def report_for(self, scenario: str, policy: str) -> ClusterReport:
        """Look up one cell of the policy grid."""
        for report in self.policy_reports[scenario]:
            if report.policy == policy:
                return report
        raise KeyError(f"no report for policy {policy!r} in scenario {scenario!r}")


def _default_fleet(fast: bool, seed: int, dataset: str):
    """Trained CBNet/BranchyNet backends on the three calibrated testbeds."""
    scale = scale_for(fast)
    artifacts = pipeline_for(dataset, scale, seed=seed)
    devices = device_profiles()
    backends = tuple(
        CBNetBackend(artifacts.cbnet, dev) for dev in devices.values()
    )
    degrade_backends = tuple(
        BranchyNetBackend(artifacts.branchynet, dev) for dev in devices.values()
    )
    spec = FleetSpec(
        backends=backends,
        spawn_backend=lambda: CBNetBackend(artifacts.cbnet, devices["gci-cpu"]),
        degrade_backends=degrade_backends,
    )
    test = artifacts.datasets["test"]
    return spec, test.images, test.labels


def _oracle_fleet(fleet: FleetSpec, images: np.ndarray) -> FleetSpec:
    """Wrap every backend (incl. spawned units) in the inference oracle.

    Tables are memoized per (model, threshold, image pool), so the three
    device calibrations of one model share one precomputation and every
    autoscaler spawn is a cheap cache hit.
    """
    spawn = fleet.spawn_backend
    return replace(
        fleet,
        backends=tuple(oracle_backend(b, images) for b in fleet.backends),
        degrade_backends=tuple(
            oracle_backend(b, images) for b in fleet.degrade_backends
        ),
        spawn_backend=lambda: oracle_backend(spawn(), images),
    )


def _run_policy_cell(task) -> ClusterReport:
    """One (scenario, policy) grid cell — module-level for the pool."""
    (
        backends,
        policy,
        scenario,
        arrival_s,
        images,
        labels,
        slo_s,
        max_batch_size,
        max_wait_s,
        cache_capacity,
        cell_seed,
    ) = task
    cluster = Cluster(
        list(backends),
        policy=policy,
        slo_s=slo_s,
        max_batch_size=max_batch_size,
        max_wait_s=max_wait_s,
        cache_capacity=cache_capacity,
        rng=cell_seed,
    )
    return cluster.serve(images, arrival_s, labels=labels, scenario=scenario)


def run_fleet_comparison(
    fast: bool = True,
    seed: int = 0,
    dataset: str = "mnist",
    scenarios: tuple[str, ...] = FLEET_SCENARIOS,
    policies: tuple[str, ...] = POLICY_NAMES,
    n_requests: int | None = None,
    cache_capacity: int = 256,
    fleet: FleetSpec | None = None,
    images: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    live: bool = False,
    jobs: int = 1,
) -> FleetComparison:
    """Run the three fleet studies and return every report.

    Every policy of one scenario replays the *same* arrival trace and
    request stream, so the tail columns are directly comparable.  Pass a
    toy ``fleet`` (plus ``images``/``labels``) to exercise the full
    experiment path without trained models — that is what the smoke
    tests do.

    By default the fleet runs in oracle mode: one precomputed inference
    pass per model over the unique image pool serves every scenario,
    policy, and replica (``live=True`` restores in-loop inference — the
    equivalence tests' reference path).  ``jobs > 1`` fans the
    scenario × policy grid over a process pool via
    :func:`repro.parallel.pool.parallel_map`; results are identical to the
    serial order (each cell derives its own seed).
    """
    unknown = set(scenarios) - set(FLEET_SCENARIOS)
    if unknown:
        raise ValueError(
            f"unknown scenarios: {sorted(unknown)} (choose from {FLEET_SCENARIOS})"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if fleet is None:
        fleet, images, labels = _default_fleet(fast, seed, dataset)
    elif images is None:
        raise ValueError("a custom fleet needs explicit images (and labels)")
    if n_requests is None:
        n_requests = 2400 if fast else 6000

    capacity = fleet.capacity_hz()
    # SLO: a full batch on the slowest base replica plus the batching
    # deadline, with 3x queueing headroom — loose enough that a sanely
    # balanced fleet attains it, tight enough that round-robin's Pi queue
    # and unmitigated failures visibly miss it.
    slowest = max(
        b.mean_service_s(batch_size=fleet.max_batch_size) * fleet.max_batch_size
        for b in fleet.backends
    )
    slo_s = 3.0 * (slowest + fleet.max_wait_s)

    stream_rng = as_generator(derive_seed(seed, dataset, "fleet-stream"))
    indices = zipf_popularity(len(images), n_requests, exponent=0.9, rng=stream_rng)
    req_labels = labels[indices] if labels is not None else None
    if live:
        req_images = images[indices]
    else:
        fleet = _oracle_fleet(fleet, images)
        req_images = indices

    def arrivals_for(scenario: str) -> np.ndarray:
        rng = as_generator(derive_seed(seed, dataset, f"fleet-{scenario}"))
        if scenario == "steady":
            return poisson_arrivals(0.6 * capacity, n_requests, rng=rng)
        if scenario == "diurnal":
            mean = 0.55 * capacity
            return diurnal_arrivals(
                mean, n_requests, period_s=0.5 * n_requests / mean, depth=0.75, rng=rng
            )
        # flash-crowd: comfortable base load, then a sustained spike past
        # the whole fleet's capacity for ~an eighth of the trace.
        base = 0.35 * capacity
        span = n_requests / base
        return flash_crowd_arrivals(
            base,
            2.5 * capacity,
            n_requests,
            spike_start_s=0.25 * span,
            spike_duration_s=0.08 * span,
            rng=rng,
        )

    # The scenario × policy grid is embarrassingly parallel: every cell
    # builds its own Cluster and derives its own seed, so `jobs` workers
    # return bit-identical reports in the serial order.
    arrivals = {scenario: arrivals_for(scenario) for scenario in scenarios}
    cells = [
        (
            fleet.backends,
            policy,
            scenario,
            arrivals[scenario],
            req_images,
            req_labels,
            slo_s,
            fleet.max_batch_size,
            fleet.max_wait_s,
            cache_capacity,
            derive_seed(seed, scenario, policy),
        )
        for scenario in scenarios
        for policy in policies
    ]
    policy_reports: dict[str, list[ClusterReport]] = {s: [] for s in scenarios}
    for report in parallel_map(_run_policy_cell, cells, n_workers=jobs):
        policy_reports[report.scenario].append(report)

    autoscaler_reports = _autoscaler_study(
        fleet, req_images, req_labels, n_requests, cache_capacity, seed, dataset
    )
    failure_report = _failure_study(
        fleet, req_images, req_labels, slo_s, seed, dataset
    )
    return FleetComparison(
        dataset=dataset,
        n_requests=n_requests,
        capacity_hz=capacity,
        slo_s=slo_s,
        policy_reports=policy_reports,
        autoscaler_reports=autoscaler_reports,
        failure_report=failure_report,
    )


def _autoscaler_study(
    fleet: FleetSpec,
    images: np.ndarray,
    labels: np.ndarray | None,
    n_requests: int,
    cache_capacity: int,
    seed: int,
    dataset: str,
) -> list[ClusterReport]:
    """Fixed peak-sized fleet vs reactive autoscaler on one diurnal trace.

    Homogeneous on purpose: every replica is one ``spawn_backend`` unit,
    so the only variable is *how many* are up — the autoscaling claim
    isolated from the balancing claim.
    """
    unit = fleet.unit_rate_hz()
    min_units, max_units = 2, 5
    mean_rate = 1.1 * min_units * unit  # trough idles 2 units, peak needs ~4
    period = 0.5 * n_requests / mean_rate
    arrival_s = diurnal_arrivals(
        mean_rate,
        n_requests,
        period_s=period,
        depth=0.75,
        rng=as_generator(derive_seed(seed, dataset, "fleet-autoscale")),
    )
    unit_service = fleet.spawn_backend().mean_service_s(
        batch_size=fleet.max_batch_size
    )
    slo_s = 3.0 * (unit_service * fleet.max_batch_size + fleet.max_wait_s)

    def build(n_units: int, autoscaler: Autoscaler | None) -> Cluster:
        return Cluster(
            [fleet.spawn_backend() for _ in range(n_units)],
            policy="least-outstanding",
            autoscaler=autoscaler,
            slo_s=slo_s,
            max_batch_size=fleet.max_batch_size,
            max_wait_s=fleet.max_wait_s,
            cache_capacity=cache_capacity,
            rng=derive_seed(seed, dataset, "fleet-autoscale-rng"),
        )

    fixed = build(max_units, None).serve(
        images, arrival_s, labels=labels, scenario="diurnal-fixed"
    )
    config = AutoscalerConfig(
        slo_s=slo_s,
        interval_s=0.02 * period,
        window_s=0.06 * period,
        scale_up_queue=1.5 * fleet.max_batch_size,
        scale_down_queue=0.25 * fleet.max_batch_size,
        min_replicas=min_units,
        max_replicas=max_units,
        warmup_s=0.01 * period,
        cooldown_s=0.03 * period,
    )
    auto = build(
        min_units, Autoscaler(config, fleet.spawn_backend)
    ).serve(images, arrival_s, labels=labels, scenario="diurnal-auto")
    return [fixed, auto]


def _failure_study(
    fleet: FleetSpec,
    images: np.ndarray,
    labels: np.ndarray | None,
    slo_s: float,
    seed: int,
    dataset: str,
) -> ClusterReport:
    """Crash the fastest replica mid-trace behind degrade-mode admission."""
    backends = list(fleet.degrade_backends or fleet.backends)
    capacity = sum(
        1.0 / b.mean_service_s(batch_size=fleet.max_batch_size) for b in backends
    )
    n_requests = images.shape[0]
    # No result cache here: the availability story needs every request to
    # hit a replica, so losing the fastest one actually hurts.  0.7 of
    # the all-easy capacity keeps the healthy fleet comfortable but makes
    # the outage window genuinely tight.
    rate = 0.7 * capacity
    span = n_requests / rate
    arrival_s = poisson_arrivals(
        rate, n_requests, rng=as_generator(derive_seed(seed, dataset, "fleet-failure"))
    )
    fastest = min(
        range(len(backends)),
        key=lambda i: backends[i].mean_service_s(batch_size=fleet.max_batch_size),
    )
    cluster = Cluster(
        backends,
        policy="power-of-two",
        admission=AdmissionController(
            max_outstanding=4 * fleet.max_batch_size * len(backends), policy="degrade"
        ),
        faults=FaultPlan(
            crash_window(fastest, at_s=0.35 * span, duration_s=0.25 * span)
        ),
        slo_s=slo_s,
        max_batch_size=fleet.max_batch_size,
        max_wait_s=fleet.max_wait_s,
        cache_capacity=0,
        recover_warmup_s=0.01 * span,
        rng=derive_seed(seed, dataset, "fleet-failure-rng"),
    )
    return cluster.serve(images, arrival_s, labels=labels, scenario="crash-recover")
