"""Chaos experiment: one seeded fault storm, defended vs undefended.

The robustness claim of the resilience layer (:mod:`repro.faults`) in
one table: two identical fleets replay the *same* request stream under
the *same* seeded storm of slowdowns, partitions, flaky windows, and
crash/recover cycles.  The **naive** arm has no defences — flaky
responses lose their requests outright and partition-deferred responses
land whenever the partition heals.  The **resilient** arm runs the full
stack: per-attempt timeouts, jittered backed-off retries, hedged
dispatch, and per-replica circuit breakers.

Because both arms share one storm and one trace, the availability and
interactive-SLO columns are directly comparable — the experiment (and
its acceptance test) asserts the resilient arm strictly wins both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.engine import Cluster, ClusterReport, fleet_comparison_table
from repro.experiments.common import pipeline_for, scale_for
from repro.faults import (
    CRASH,
    FLAKY,
    PARTITION,
    SLOWDOWN,
    BreakerConfig,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    crash_window,
    flaky_window,
    hedge_delay_for,
    partition_window,
    slowdown_window,
)
from repro.hw.devices import device_profiles
from repro.serving.arrivals import poisson_arrivals, zipf_popularity
from repro.serving.backends import CBNetBackend, InferenceBackend
from repro.sim import oracle_backend
from repro.utils.rng import as_generator, derive_seed

__all__ = ["ChaosComparison", "resilience_for_fleet", "run_chaos_comparison"]

#: Replicas in the default (trained) chaos fleet.
_N_REPLICAS = 4


def resilience_for_fleet(
    backends: list[InferenceBackend],
    max_batch_size: int,
    max_wait_s: float,
) -> ResilienceConfig:
    """Resilience knobs scaled to a fleet's healthy service times.

    The per-attempt timeout sits a few healthy-batch-times out: far
    enough that a healthy replica never trips it, close enough that a
    4-16x straggler or an unhealed partition does.  No degradation
    controller: shedding would trade away exactly the availability this
    experiment is about.
    """
    tick = max_wait_s + max(
        b.mean_service_s(batch_size=max_batch_size) * max_batch_size for b in backends
    )
    return ResilienceConfig(
        timeout_s=8.0 * tick,
        retry=RetryPolicy(
            max_retries=3,
            base_backoff_s=max_wait_s,
            backoff_mult=2.0,
            max_backoff_s=4.0 * max_wait_s,
            jitter_frac=0.25,
        ),
        # Hedge only genuine stragglers: a delay down at the healthy
        # *median* sojourn would duplicate most of the offered load and
        # melt the fleet the moment a fault eats into capacity.
        hedge_delay_s=hedge_delay_for(backends, max_batch_size, max_wait_s, factor=4.0),
        breaker=BreakerConfig(
            window_s=8.0 * tick,
            min_samples=6,
            error_threshold=0.5,
            cooldown_s=4.0 * tick,
            half_open_probes=2,
        ),
    )


def _storm_for(n_replicas: int, horizon_s: float, rng) -> FaultPlan:
    """A structured seeded storm touching every fault kind in turn.

    One episode at a time — slowdown, partition, flaky, crash, flaky —
    with seeded jitter on positions and magnitudes.  Staggering is the
    point: the fleet never loses more than one replica's capacity at
    once, so the arms are compared on *fault handling*, not on raw
    capacity shortfall (a storm that halves the fleet under load is an
    overload study, and retries can only amplify it).  The plan's
    ``seed`` drives the in-run sampling (flaky coin flips, retry
    jitter), so one integer reproduces the whole run.
    """

    def window(lo: float, hi: float) -> tuple[float, float]:
        start = float(rng.uniform(lo, hi)) * horizon_s
        duration = float(rng.uniform(0.10, 0.14)) * horizon_s
        return start, duration

    faults = []
    at, dur = window(0.06, 0.10)
    faults += slowdown_window(1 % n_replicas, at, dur, float(rng.uniform(8.0, 14.0)))
    at, dur = window(0.28, 0.32)
    faults += partition_window(2 % n_replicas, at, dur)
    at, dur = window(0.48, 0.52)
    faults += flaky_window(3 % n_replicas, at, dur, float(rng.uniform(0.4, 0.7)))
    at, dur = window(0.84, 0.87)
    faults += flaky_window(2 % n_replicas, at, dur, float(rng.uniform(0.4, 0.6)))
    at, dur = window(0.68, 0.72)
    faults += crash_window(0, at, dur)
    return FaultPlan(faults=tuple(faults), seed=int(rng.integers(2**31 - 1)))


@dataclass
class ChaosComparison:
    """Both chaos arms plus the storm that battered them."""

    dataset: str
    n_requests: int
    slo_s: float
    plan: FaultPlan
    naive: ClusterReport
    resilient: ClusterReport

    def storm_summary(self) -> str:
        """One line describing the injected storm."""
        # Count window onsets, not events: a window's restoring twin
        # (slowdown back to 1.0, flaky back to 0.0, heal) doesn't count.
        kinds = {SLOWDOWN: 0, PARTITION: 0, FLAKY: 0}
        for fault in self.plan.faults:
            if fault.kind == SLOWDOWN and fault.magnitude > 1.0:
                kinds[SLOWDOWN] += 1
            elif fault.kind == FLAKY and fault.magnitude > 0.0:
                kinds[FLAKY] += 1
            elif fault.kind == PARTITION:
                kinds[PARTITION] += 1
        return (
            f"{kinds[SLOWDOWN]} slowdowns, {kinds[PARTITION]} partitions, "
            f"{kinds[FLAKY]} flaky windows, "
            f"{sum(f.kind == CRASH for f in self.plan.failures)} crashes "
            f"(storm seed {self.plan.seed})"
        )

    def render(self) -> str:
        """Comparison table plus the headline availability/SLO lines."""
        title = (
            f"Chaos storm ({self.dataset}) — {self.n_requests} requests, "
            f"interactive SLO {self.slo_s * 1e3:.0f} ms; {self.storm_summary()}"
        )
        table = fleet_comparison_table([self.naive, self.resilient], title)
        n, r = self.naive, self.resilient
        lines = [
            table.render(),
            (
                f"availability: resilient {r.availability:.1%} vs naive "
                f"{n.availability:.1%}; interactive p99 SLO: resilient "
                f"{r.slo_attainment:.1%} vs naive {n.slo_attainment:.1%}"
            ),
            (
                f"resilient defences: {r.n_retried} retried, {r.n_timed_out} "
                f"timed out, {r.n_hedged} hedged, {r.n_breaker_trips} breaker "
                f"trips, {r.n_batch_failures} failed batches "
                f"(naive lost {n.n_unserved} requests to "
                f"{n.n_batch_failures} failed batches)"
            ),
        ]
        return "\n".join(lines)


def _default_fleet(fast: bool, seed: int, dataset: str):
    """A homogeneous trained CBNet fleet on the calibrated cloud CPU.

    Homogeneous on purpose: every replica is interchangeable, so any
    availability or tail gap between the arms is the storm plus the
    defences — never hardware skew.
    """
    scale = scale_for(fast)
    artifacts = pipeline_for(dataset, scale, seed=seed)
    device = device_profiles()["gci-cpu"]
    backends = [CBNetBackend(artifacts.cbnet, device) for _ in range(_N_REPLICAS)]
    test = artifacts.datasets["test"]
    return backends, test.images, test.labels


def run_chaos_comparison(
    fast: bool = True,
    seed: int = 0,
    dataset: str = "mnist",
    n_requests: int | None = None,
    backends: list[InferenceBackend] | None = None,
    images: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    live: bool = False,
) -> ChaosComparison:
    """Serve one seeded storm twice — naive, then fully defended.

    Both arms replay identical arrivals, an identical request stream,
    and the identical :func:`~repro.faults.fault_storm`, so the columns
    differ only by the defences.  Pass toy ``backends`` (plus
    ``images``/``labels``) to run without trained models — that is what
    the smoke tests and the chaos benchmark do.  By default inference
    runs through the precomputed oracle; ``live=True`` restores in-loop
    model calls (slower, identical metrics).
    """
    if backends is None:
        backends, images, labels = _default_fleet(fast, seed, dataset)
    elif images is None:
        raise ValueError("a custom fleet needs explicit images (and labels)")
    if n_requests is None:
        n_requests = 2000 if fast else 8000
    max_batch_size, max_wait_s = 8, 0.004

    capacity = sum(1.0 / b.mean_service_s(batch_size=max_batch_size) for b in backends)
    rate = 0.6 * capacity  # chaos, not overload, is the stressor
    arrival_s = poisson_arrivals(
        rate,
        n_requests,
        rng=as_generator(derive_seed(seed, dataset, "chaos-arrivals")),
    )
    stream_rng = as_generator(derive_seed(seed, dataset, "chaos-stream"))
    indices = zipf_popularity(len(images), n_requests, exponent=0.9, rng=stream_rng)
    req_labels = labels[indices] if labels is not None else None
    if live:
        req_images = images[indices]
    else:
        backends = [oracle_backend(b, images) for b in backends]
        req_images = indices

    horizon = float(arrival_s[-1]) + 0.05
    plan = _storm_for(
        len(backends), horizon, as_generator(derive_seed(seed, dataset, "chaos-storm"))
    )
    resilience = resilience_for_fleet(backends, max_batch_size, max_wait_s)
    # The interactive deadline: a healthily-batched request clears it
    # with margin, anything stuck behind a straggler or partition misses.
    slo_s = 4.0 * (
        max_wait_s
        + max(
            b.mean_service_s(batch_size=max_batch_size) * max_batch_size
            for b in backends
        )
    )

    def run_arm(resilient: bool, scenario: str) -> ClusterReport:
        cluster = Cluster(
            list(backends),
            policy="least-outstanding",
            faults=plan,
            resilience=resilience if resilient else None,
            slo_s=slo_s,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            cache_capacity=0,
            rng=derive_seed(seed, dataset, "chaos-rng"),
        )
        return cluster.serve(req_images, arrival_s, labels=req_labels, scenario=scenario)

    naive = run_arm(False, "chaos-naive")
    resilient = run_arm(True, "chaos-resilient")
    return ChaosComparison(
        dataset=dataset,
        n_requests=n_requests,
        slo_s=slo_s,
        plan=plan,
        naive=naive,
        resilient=resilient,
    )
