"""The six seeded workloads of the layered benchmark.

Every workload is built once per process (:func:`build`) and then
replayed any number of times (:meth:`Workload.replay`).  Building is the
benchmark's set-up: it loads the trained MNIST pipeline from the disk
cache, builds the oracle table, generates every input from the seed and
warms the fastpath plans.  A replay drives one public entry point —
``Cluster.serve_log``, ``run_fleet_net`` or a live ``CBNetBackend``
fleet — and returns a :class:`Replay`: the requests it simulated, the
simulated statistics, a digest of the full outputs, and the result of
every correctness check.

The seed generates arrivals, request popularity, classes and fault
plans only; the model is always the one trained at seed 0, so two seeds
differ in their inputs, never in the program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.admission import WeightedFairAdmission
from repro.cluster.engine import Cluster
from repro.experiments.chaos import resilience_for_fleet
from repro.experiments.common import FAST, pipeline_for
from repro.faults.plan import fault_storm
from repro.hw.devices import gci_cpu
from repro.hw.network import lte
from repro.netsim import AIMDConfig, FleetDevice, SharedLink, run_fleet_net
from repro.netsim.faults import link_storm
from repro.offload.policies import DeadlineAware, EntropyGated
from repro.serving.arrivals import class_mix, poisson_arrivals, zipf_popularity
from repro.serving.backends import CBNetBackend
from repro.serving.classes import default_classes
from repro.sim import oracle_backend
from repro.sim.records import ROUTE_BATCHED, ROUTE_EASY, ROUTE_HARD, ROUTE_SHED
from repro.utils.rng import derive_seed

__all__ = ["NAMES", "WHY", "Context", "Replay", "Workload", "build", "load_context"]

#: Why each workload exists: the layer it stresses and the one it bypasses.
WHY = {
    "cluster_cached": (
        "Zipf traffic whose working set fits the LRU cache: serving.cache does "
        "most of the work, batching and routing almost none"
    ),
    "fleet_64": (
        "Cache off over 64 replicas: every request is batched and dispatched, so "
        "per-event O(replicas) scans and p2c choose dominate"
    ),
    "tenants_overload": (
        "1.2x overload with three classes: weighted-fair admission sheds, and "
        "per-class priority queues fill full batches of 32"
    ),
    "chaos_resilient": (
        "A seeded fault storm against timeouts, retries, hedges and breakers: "
        "the only workload that exercises faults"
    ),
    "lte_storm": (
        "Eight devices on one stormy shared LTE cell, naive then deadline-aware: "
        "AIMD flights versus mostly-local estimate_s reads"
    ),
    "live_cbnet": (
        "The paper's computation: converting AE plus lightweight classifier "
        "through nn.fastpath, with no oracle table"
    ),
}
NAMES = tuple(WHY)

#: Requests per replay, sized so one replay takes about a second of host
#: time on a 2-core Xeon while every replay still serves more than 10^4
#: requests (live inference makes ``live_cbnet`` the slow one, ~2 s);
#: ``--smoke`` divides them by ``SMOKE_DIVISOR``.
SIZES = {
    "cluster_cached": 300_000,
    "fleet_64": 16_000,
    "tenants_overload": 65_000,
    "chaos_resilient": 40_000,
    "lte_storm": 2 * 8 * 3_500,
    "live_cbnet": 10_400,
}
SMOKE_DIVISOR = 40

MAX_BATCH = 32
MAX_WAIT_S = 0.002
N_REPLICAS = 4
LTE_DEVICES = 8
LTE_DEADLINE_S = 0.25
LTE_MAX_ATTEMPTS = 8
STORM_WINDOW_S = 0.06
STORM_WINDOWS_PER_S = 0.5
STORM_MTBF_S = 2.0
STORM_MTTR_S = 0.05


@dataclass(frozen=True)
class Context:
    """What every workload shares: the trained pipeline and its image pool."""

    cbnet: object
    images: np.ndarray
    labels: np.ndarray
    oracle: object


def load_context() -> Context:
    """Load the cached seed-0 MNIST pipeline and build its oracle table."""
    artifacts = pipeline_for("mnist", FAST, seed=0)
    test = artifacts.datasets["test"]
    return Context(
        cbnet=artifacts.cbnet,
        images=test.images,
        labels=test.labels,
        oracle=oracle_backend(CBNetBackend(artifacts.cbnet, gci_cpu()), test.images),
    )


@dataclass
class Replay:
    """One replay's outputs: what it simulated and whether it was right.

    ``sim`` holds the simulated (virtual-time) statistics, which are a
    pure function of the seed; ``counters`` holds the layer counts the
    traced pass turns into per-layer ratios.
    """

    n_requests: int
    digest: str
    sim: dict[str, float]
    counters: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Record ``what`` as failed unless ``ok``."""
        if not ok:
            self.failures.append(what)


def _digest(columns) -> str:
    h = hashlib.sha256()
    for name, column in columns:
        h.update(name.encode())
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def _log_digest(log) -> str:
    return _digest((name, getattr(log, name)) for name in type(log).__slots__)


class Workload:
    """Base: a named, seeded input set with one replay entry point."""

    name = ""

    def __init__(self, ctx: Context, seed: int, n_requests: int) -> None:
        self.ctx = ctx
        self.seed = int(seed)
        self.n = int(n_requests)

    def rng(self, *path: str) -> np.random.Generator:
        return np.random.default_rng(derive_seed(self.seed, self.name, *path))

    def replay(self) -> Replay:
        raise NotImplementedError


class _ClusterWorkload(Workload):
    """A Zipf/Poisson trace served by one ``Cluster.serve_log`` call."""

    policy = "round-robin"
    n_replicas = N_REPLICAS
    max_batch = MAX_BATCH
    max_wait_s = MAX_WAIT_S
    load = 0.7
    cache_capacity = 0
    slo_s = 0.05
    expect_all_served = True

    def __init__(self, ctx: Context, seed: int, n_requests: int) -> None:
        super().__init__(ctx, seed, n_requests)
        self.backends = self.make_backends()
        unit = self.backends[0].mean_service_s(batch_size=self.max_batch)
        self.ids = zipf_popularity(len(ctx.images), self.n, exponent=0.9, rng=self.rng("ids"))
        self.arrival_s = poisson_arrivals(
            self.load * (self.n_replicas / unit), self.n, rng=self.rng("arrivals")
        )
        self.labels = ctx.labels[self.ids]
        self.requests = self.ids

    def make_backends(self) -> list:
        return [self.ctx.oracle] * self.n_replicas

    def make_cluster(self) -> Cluster:
        return Cluster(
            list(self.backends),
            policy=self.policy,
            slo_s=self.slo_s,
            max_batch_size=self.max_batch,
            max_wait_s=self.max_wait_s,
            cache_capacity=self.cache_capacity,
            rng=derive_seed(self.seed, self.name, "balancer"),
            **self.cluster_kwargs(),
        )

    def cluster_kwargs(self) -> dict:
        return {}

    def serve(self, cluster: Cluster):
        return cluster.serve_log(self.requests, self.arrival_s, labels=self.labels)

    def replay(self) -> Replay:
        cluster = self.make_cluster()
        report, log = self.serve(cluster)
        served = log.done
        shed = log.route == ROUTE_SHED
        n_served, n_shed = int(served.sum()), int(shed.sum())
        n_unserved = int((~served & ~shed).sum())
        batched = served & np.isin(log.route, (ROUTE_BATCHED, ROUTE_EASY, ROUTE_HARD))
        wait_ms = (log.dispatch_s[batched] - log.arrival_s[batched]) * 1e3
        out = Replay(
            n_requests=self.n,
            digest=_log_digest(log),
            sim={
                "sim_p50_ms": report.p50_s * 1e3,
                "sim_p99_ms": report.p99_s * 1e3,
                "sim_samples": n_served,
                "sim_slo_attainment": report.slo_attainment,
                "accuracy": report.accuracy,
            },
            counters={
                "batches": sum(r.n_batches for r in cluster.replicas),
                "cache_hit_ratio": report.cache_hit_rate,
                "mean_batch_size": report.mean_batch_size,
                "queue_wait_p99_ms": float(np.percentile(wait_ms, 99)) if wait_ms.size else 0.0,
                "shed_ratio": report.shed_rate,
                "timeouts": report.n_timed_out,
                "breaker_trips": report.n_breaker_trips,
                "attempts_per_req": (self.n + int(log.retries.sum()) + int(log.hedged.sum()))
                / self.n,
            },
        )
        out.check(not (served & shed).any(), "a request is both served and shed")
        out.check(
            (report.n_served, report.n_shed, report.n_unserved)
            == (n_served, n_shed, n_unserved)
            and n_served + n_shed + n_unserved == self.n,
            "served + shed + unserved != requests",
        )
        if self.expect_all_served:
            out.check(n_served == self.n, f"{self.n - n_served} requests not served")
            out.check(report.accuracy > 0.9, f"accuracy {report.accuracy:.4f} <= 0.9")
        self.check(out, report, log)
        return out

    def check(self, out: Replay, report, log) -> None:
        """Workload-specific correctness checks (none by default)."""


class ClusterCached(_ClusterWorkload):
    name = "cluster_cached"
    cache_capacity = 512


class Fleet64(_ClusterWorkload):
    name = "fleet_64"
    policy = "power-of-two"
    n_replicas = 64


class TenantsOverload(_ClusterWorkload):
    name = "tenants_overload"
    policy = "least-outstanding"
    load = 1.2
    expect_all_served = False

    def __init__(self, ctx: Context, seed: int, n_requests: int) -> None:
        super().__init__(ctx, seed, n_requests)
        unit = self.backends[0].mean_service_s(batch_size=self.max_batch)
        self.classes = default_classes(
            slo_s=3.0 * (unit * self.max_batch + self.max_wait_s), max_wait_s=self.max_wait_s
        )
        self.slo_s = self.classes[0].deadline_s
        self.codes = class_mix(self.n, np.array([0.5, 0.3, 0.2]), self.rng("classes"))

    def cluster_kwargs(self) -> dict:
        return {
            "admission": WeightedFairAdmission(
                self.classes, max_outstanding=8 * self.max_batch * self.n_replicas
            ),
            "classes": self.classes,
            "scheduler": "priority",
        }

    def serve(self, cluster: Cluster):
        return cluster.serve_log(
            self.requests, self.arrival_s, labels=self.labels, request_classes=self.codes
        )

    def check(self, out: Replay, report, log) -> None:
        inter, _, batch = report.class_reports
        out.check(
            sum(r.n_requests for r in report.class_reports) == self.n
            and all(
                r.n_served + r.n_shed + r.n_unserved == r.n_requests
                for r in report.class_reports
            ),
            "per-class served + shed + unserved != class requests",
        )
        out.check(inter.p99_s < batch.p99_s, "interactive p99 not below batch p99")
        out.check(batch.n_served > 0, "batch class starved")


class ChaosResilient(_ClusterWorkload):
    name = "chaos_resilient"
    policy = "least-outstanding"
    max_batch = 8
    max_wait_s = 0.004
    # At 0.6x capacity some random storms tip the hedged, retrying fleet
    # into a metastable collapse (every attempt times out, retries keep
    # it overloaded): seed 4 left 9% unserved at 3.5x the host time.
    # 0.4x keeps every seed tried out of that regime.
    load = 0.4
    expect_all_served = False

    def __init__(self, ctx: Context, seed: int, n_requests: int) -> None:
        super().__init__(ctx, seed, n_requests)
        horizon = float(self.arrival_s[-1]) + 0.05
        # Fault windows and crash cycles arrive at fixed virtual-time
        # rates, so a longer trace sees proportionally more of them and
        # the storm's cost per request barely moves with the seed.  Most
        # windows outlast the 25 ms hedge delay, so partitions and
        # slowdowns are answered by hedges, retries and breaker trips.
        self.plan = fault_storm(
            self.n_replicas,
            horizon,
            rng=self.rng("storm"),
            mean_window_s=STORM_WINDOW_S,
            windows_per_replica=STORM_WINDOWS_PER_S * horizon,
            crash_mtbf_s=STORM_MTBF_S,
            crash_mttr_s=STORM_MTTR_S,
        )
        self.resilience = resilience_for_fleet(self.backends, self.max_batch, self.max_wait_s)
        self.slo_s = 4.0 * (
            self.max_wait_s + self.backends[0].mean_service_s(batch_size=self.max_batch)
            * self.max_batch
        )

    def cluster_kwargs(self) -> dict:
        return {"faults": self.plan, "resilience": self.resilience}

    def check(self, out: Replay, report, log) -> None:
        n_crashes = sum(1 for e in self.plan.failures if e.kind == "crash")
        budget = self.resilience.retry.max_retries + n_crashes
        out.check(
            int(log.retries.max(initial=0)) <= budget,
            "a request retried beyond max_retries plus one re-route per crash",
        )
        out.check(bool((log.timed_out <= log.retries + 1).all()), "an attempt timed out twice")


class LiveCBNet(_ClusterWorkload):
    name = "live_cbnet"

    def __init__(self, ctx: Context, seed: int, n_requests: int) -> None:
        super().__init__(ctx, seed, n_requests)
        self.requests = ctx.images[self.ids]
        self.expected = ctx.oracle.table.easy_preds[self.ids]
        for backend in self.backends:
            backend.warmup(self.max_batch, sample_shape=ctx.images.shape[1:])

    def make_backends(self) -> list:
        device = gci_cpu()
        return [CBNetBackend(self.ctx.cbnet, device) for _ in range(self.n_replicas)]

    def check(self, out: Replay, report, log) -> None:
        out.check(
            bool(np.array_equal(log.prediction, self.expected)),
            "live predictions differ from the oracle table",
        )


class LteStorm(Workload):
    """Both offload arms over one seeded shared-LTE storm."""

    name = "lte_storm"

    def __init__(self, ctx: Context, seed: int, n_requests: int) -> None:
        super().__init__(ctx, seed, n_requests)
        per_device = max(1, self.n // (2 * LTE_DEVICES))
        self.n = 2 * LTE_DEVICES * per_device
        self.spec = FleetDevice(
            rate_hz=15.0, n_requests=per_device, up_bytes=8_000, local_s=40e-3, cloud_s=4e-3
        )
        horizon = per_device / self.spec.rate_hz
        # Many short windows rather than link_storm's default handful of
        # long ones, so every seed's storm costs about the same to replay.
        self.storm = link_storm(
            horizon, rng=self.rng("storm"), outages=6.0, degrades=12.0, flaps=12.0,
            mean_window_s=horizon / 60.0,
        )
        self.fleet_seed = derive_seed(self.seed, self.name, "fleet")
        self.aimd = AIMDConfig(init_cwnd=10)

    def run_arm(self, policy):
        link = SharedLink.from_network_link(lte(), faults=self.storm)
        return run_fleet_net(
            link,
            (self.spec,) * LTE_DEVICES,
            policy,
            deadline_s=LTE_DEADLINE_S,
            rng=self.fleet_seed,
            aimd=self.aimd,
            max_attempts=LTE_MAX_ATTEMPTS,
        )

    def replay(self) -> Replay:
        arms = (self.run_arm(EntropyGated()), self.run_arm(DeadlineAware(LTE_DEADLINE_S)))
        deadline = arms[1]
        sojourn = deadline.sojourn_s
        offloaded = sum(a.n_offloaded for a in arms)
        out = Replay(
            n_requests=self.n,
            digest=_digest(
                (f"{a.policy}.{col}", getattr(a, col))
                for a in arms
                for col in ("arrival_s", "completion_s", "outcome", "device_of", "delivered_count")
            ),
            sim={
                "sim_p50_ms": float(np.percentile(sojourn, 50)) * 1e3,
                "sim_p99_ms": float(np.percentile(sojourn, 99)) * 1e3,
                "sim_samples": int(sojourn.size),
                "sim_slo_attainment": deadline.slo_attainment,
                "accuracy": float("nan"),
            },
            counters={
                "offloads": offloaded,
                "offload_ratio": offloaded / self.n,
                "retx_amplification": max(a.retx_amplification for a in arms),
                "sessions": sum(d.sessions for a in arms for d in a.devices),
                "carrier_drops": sum(d.carrier_drops for a in arms for d in a.devices),
            },
        )
        for arm in arms:
            out.check(arm.n_requests == self.n // 2, f"{arm.policy}: request count")
            out.check(bool(np.isfinite(arm.completion_s).all()), f"{arm.policy}: unanswered")
            out.check(arm.n_lost == 0, f"{arm.policy}: {arm.n_lost} transfers lost")
            out.check(
                arm.n_double_delivered == 0,
                f"{arm.policy}: {arm.n_double_delivered} double deliveries",
            )
            out.check(
                arm.retx_amplification <= LTE_MAX_ATTEMPTS,
                f"{arm.policy}: retransmit amplification above max_attempts",
            )
        return out


_CLASSES = {
    cls.name: cls
    for cls in (ClusterCached, Fleet64, TenantsOverload, ChaosResilient, LteStorm, LiveCBNet)
}


def build(name: str, ctx: Context, seed: int, smoke: bool = False) -> Workload:
    """Generate workload ``name``'s inputs from ``seed`` (the set-up step)."""
    n = SIZES[name] // SMOKE_DIVISOR if smoke else SIZES[name]
    return _CLASSES[name](ctx, seed, n)
