"""Serving-engine experiment: the four systems under three load shapes.

Extends the paper's mean-latency comparison (Table II) to *served*
traffic: the same Zipf-skewed request stream is replayed against CBNet,
BranchyNet, the LeNet baseline, and the hybrid (router + converting-AE
hard path) on a simulated Raspberry Pi 4, under

* ``steady``   — Poisson arrivals at ~70% of BranchyNet's capacity,
* ``bursty``   — on/off-modulated arrivals with the same mean rate,
* ``overload`` — arrivals beyond even CBNet's service capacity.

The interesting column is p99 sojourn: CBNet's constant service time
keeps its tail near its mean, while BranchyNet's bimodal service time
(early vs full exit) fattens under load — the deployment-level argument
for the converting-autoencoder design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.engine import Cluster, ClusterReport
from repro.eval.tables import Table
from repro.experiments.common import lenet_for, pipeline_for, scale_for
from repro.hw.devices import raspberry_pi4
from repro.hw.latency import branchynet_expected_latency, cbnet_latency
from repro.serving.arrivals import bursty_arrivals, poisson_arrivals, zipf_popularity
from repro.serving.backends import (
    BranchyNetBackend,
    CBNetBackend,
    HybridBackend,
    LeNetBackend,
)
from repro.sim.records import ROUTE_EASY, ROUTE_HARD, RequestLog
from repro.utils.rng import as_generator, derive_seed

__all__ = ["SCENARIOS", "ServingComparison", "run_serving_comparison"]

SCENARIOS = ("steady", "bursty", "overload")


@dataclass
class ServingComparison:
    """All backends × all scenarios, plus the context that sized the load."""

    dataset: str
    device: str
    n_requests: int
    exit_rate: float
    #: Scenario → backend name → that run's report and request log.
    runs: dict[str, dict[str, tuple[ClusterReport, RequestLog]]]

    def render(self) -> str:
        blocks = []
        for scenario, runs in self.runs.items():
            rate = next(iter(runs.values()))[0].arrival_rate_hz
            title = (
                f"Serving engine ({self.dataset}, {self.device}) — {scenario} "
                f"@ {rate:.0f} req/s, exit rate {self.exit_rate:.0%}"
            )
            blocks.append(_comparison_table(runs, title).render())
        return "\n\n".join(blocks)

    def report_for(self, scenario: str, backend: str) -> ClusterReport:
        """Look up one cell of the comparison grid."""
        try:
            return self.runs[scenario][backend][0]
        except KeyError:
            raise KeyError(
                f"no report for backend {backend!r} in scenario {scenario!r}"
            ) from None


def _comparison_table(
    runs: dict[str, tuple[ClusterReport, RequestLog]], title: str
) -> Table:
    """One scenario's runs side by side (one row per backend).

    "hard" is the share of the routed requests (easy or hard, so cache
    hits excluded) that the backend's gate sent down the full path.
    """
    table = Table(
        headers=[
            "backend",
            "req/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "batch",
            "cache",
            "hard",
            "util",
            "acc",
        ],
        title=title,
    )
    for backend, (r, log) in runs.items():
        n_hard = log.route_count(ROUTE_HARD)
        routed = log.route_count(ROUTE_EASY) + n_hard
        table.add_row(
            backend,
            f"{r.throughput_rps:.0f}",
            f"{r.p50_s * 1e3:.2f}",
            f"{r.p95_s * 1e3:.2f}",
            f"{r.p99_s * 1e3:.2f}",
            f"{r.mean_batch_size:.1f}",
            f"{r.cache_hit_rate:.0%}",
            f"{n_hard / routed if routed else 0.0:.0%}",
            f"{r.utilization:.0%}",
            "-" if np.isnan(r.accuracy) else f"{r.accuracy:.1%}",
        )
    return table


def run_serving_comparison(
    fast: bool = True,
    seed: int = 0,
    dataset: str = "mnist",
    scenarios: tuple[str, ...] = SCENARIOS,
    n_requests: int | None = None,
    max_batch_size: int = 16,
    max_wait_s: float = 0.004,
    cache_capacity: int = 256,
    live: bool = False,
) -> ServingComparison:
    """Serve identical request streams through every backend and compare.

    The request stream samples test images with Zipf popularity (hot
    images repeat, so the LRU result cache participates) and every
    backend of one scenario replays the *same* arrival trace, making the
    sojourn percentiles directly comparable.  Each run is one backend on
    a one-replica :class:`~repro.cluster.engine.Cluster`.

    By default each backend is wrapped in the precomputed inference
    oracle (:func:`repro.sim.oracle_backend`): one batched pass over the
    unique test images replaces per-micro-batch model calls in all
    ``scenarios × backends`` runs at identical reported metrics.
    ``live=True`` keeps real in-loop inference (the equivalence tests'
    reference path).
    """
    unknown = set(scenarios) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenarios: {sorted(unknown)} (choose from {SCENARIOS})")
    scale = scale_for(fast)
    artifacts = pipeline_for(dataset, scale, seed=seed)
    lenet = lenet_for(dataset, scale, seed=seed)
    device = raspberry_pi4()
    test = artifacts.datasets["test"]

    backends = [
        CBNetBackend(artifacts.cbnet, device),
        BranchyNetBackend(artifacts.branchynet, device),
        LeNetBackend(lenet, device),
        HybridBackend(artifacts.cbnet, artifacts.branchynet, device),
    ]

    if n_requests is None:
        n_requests = 2000 if fast else 5000
    # One shared image stream: Zipf-skewed repeats over the test set.
    stream_rng = as_generator(derive_seed(seed, dataset, "serving-stream"))
    indices = zipf_popularity(len(test.images), n_requests, exponent=0.9, rng=stream_rng)
    labels = test.labels[indices]
    if live:
        images = test.images[indices]
        exit_rate = artifacts.branchynet.infer(test.images).early_exit_rate
    else:
        # Oracle mode: the stream carries sample ids; each backend is a
        # table over the unique test images (memoized, so the four
        # backends pay at most four precomputation passes total).  The
        # BranchyNet table's gate column is the same stem+branch pass
        # `infer` would run, so the exit-rate statistic (which sizes the
        # arrival rates below) comes for free — and bit-identically.
        from repro.sim import oracle_backend

        backends = [oracle_backend(b, test.images) for b in backends]
        images = indices
        gated = next(b for b in backends if b.name == "branchynet")
        exit_rate = float(gated.table.easy.mean())

    t_branchy = branchynet_expected_latency(
        artifacts.branchynet, device, exit_rate
    ).expected
    t_cbnet = cbnet_latency(artifacts.cbnet, device).total

    def arrivals_for(scenario: str) -> np.ndarray:
        rng = as_generator(derive_seed(seed, dataset, f"serving-{scenario}"))
        if scenario == "steady":
            return poisson_arrivals(0.7 / t_branchy, n_requests, rng=rng)
        if scenario == "bursty":
            return bursty_arrivals(
                0.45 / t_branchy, 1.35 / t_branchy, n_requests, rng=rng
            )
        # overload: sized so that even after the cache absorbs the hot
        # items, the miss stream alone exceeds CBNet's service capacity —
        # the queue grows for everyone and the report shows by how much.
        return poisson_arrivals(6.0 / t_cbnet, n_requests, rng=rng)

    runs: dict[str, dict[str, tuple[ClusterReport, RequestLog]]] = {}
    for scenario in scenarios:
        arrival_s = arrivals_for(scenario)
        runs[scenario] = {
            backend.name: Cluster(
                [backend],
                max_batch_size=max_batch_size,
                max_wait_s=max_wait_s,
                cache_capacity=cache_capacity,
            ).serve_log(images, arrival_s, labels=labels, scenario=scenario)
            for backend in backends
        }
    return ServingComparison(
        dataset=dataset,
        device=device.name,
        n_requests=n_requests,
        exit_rate=exit_rate,
        runs=runs,
    )
