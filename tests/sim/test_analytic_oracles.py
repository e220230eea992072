"""Analytic oracles and an exact differential for the serving kernel.

A one-replica :class:`~repro.cluster.Cluster` with ``max_batch_size=1``
and ``max_wait_s=0`` is an M/G/1 FIFO queue: each arrival flushes at
once and waits only for the worker.  Two service laws are built from
stock parts, with no toy backend:

* constant service (CBNet's static pipeline) is an
  :class:`~repro.sim.OracleBackend` over ``BatchTiming(0.0, s)``;
* bimodal service (BranchyNet's early exit) charges
  ``per_hard_extra_s = full - early`` to each hard request, and the
  oracle table's ``easy`` column is the sampled exit mask.

One replay per (law, load, seed) feeds three closed-form checks:

* Pollaczek–Khinchine: the M/G/1 mean wait
  ``W_q = λ·E[S²] / (2(1−ρ))`` lies inside a 99% batch-means
  confidence interval whose half-width is at most 20% of the closed
  form — tight enough that ``E[S]²`` in place of ``E[S²]`` (a 2.1x
  error for the bimodal law) fails;
* Little's law: by PASTA, the queue depth each arrival sees averages to
  the time-average number waiting, which must equal ``λ·W_q``;
* work conservation: the worker's busy time is the sum of its service
  intervals.

The same replays are compared, request by request and with ``==``, to
a Lindley recursion kept in this file.  Last, the tail-latency claim of
``benchmarks/test_serving_tail_latency.py`` is pinned on fixed numbers.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats

from repro.cluster import Cluster
from repro.obs.observer import Observer
from repro.serving.arrivals import poisson_arrivals
from repro.serving.backends import BatchTiming, InferenceBackend
from repro.sim import InferenceTable, OracleBackend

#: Pi-4-like service laws: CBNet 2.07 ms constant; BranchyNet 1.8 ms on
#: the early exit, 11.6 ms on the full path, 90% of requests exiting.
CBNET_S = 0.00207
EARLY_S, FULL_S, EXIT_RATE = 0.0018, 0.0116, 0.90

LAWS = ("constant", "bimodal")
LOADS = (0.3, 0.7, 0.9)
SEEDS = (0, 1, 2, 3)
N_REQUESTS = 40_000
BATCHES_PER_SEED = 10
#: One replica serving one request at a time: an M/G/1 FIFO queue.
FIFO = dict(policy="round-robin", max_batch_size=1, max_wait_s=0.0)


def service_moments(law):
    """``(E[S], E[S²])`` of one service law."""
    if law == "constant":
        return CBNET_S, CBNET_S**2
    mean = EXIT_RATE * EARLY_S + (1 - EXIT_RATE) * FULL_S
    return mean, EXIT_RATE * EARLY_S**2 + (1 - EXIT_RATE) * FULL_S**2


def draw_trace(law, rate_hz, n, seed):
    """``(arrivals, exits)`` of one replay, ``exits`` marking early exits.

    Random numbers are drawn in the tail bench's order: the bimodal
    law's exit mask first, then the arrivals from the same generator.
    """
    if law == "constant":
        return poisson_arrivals(rate_hz, n, rng=seed), np.ones(n, dtype=bool)
    rng = np.random.default_rng(seed)
    exits = rng.random(n) < EXIT_RATE
    return poisson_arrivals(rate_hz, n, rng=rng), exits


def make_backend(law, exits):
    """The law's oracle backend, answering for sample ids ``0..n-1``."""
    n = exits.shape[0]
    preds = np.zeros(n, dtype=np.int64)
    if law == "constant":
        timing = BatchTiming(0.0, CBNET_S)
        table = InferenceTable(easy_preds=preds)
    else:
        timing = BatchTiming(0.0, EARLY_S, per_hard_extra_s=FULL_S - EARLY_S)
        table = InferenceTable(preds, hard_preds=preds, entropy=np.zeros(n), easy=exits)
    return OracleBackend(InferenceBackend(timing), table)


def law_service_s(law, exits):
    """Each request's service time under the law, independent of the kernel."""
    if law == "constant":
        return np.full(exits.shape[0], CBNET_S)
    return EARLY_S + (~exits) * (FULL_S - EARLY_S)


class _DepthSampledCluster(Cluster):
    """The production kernel, recording the queue depth each arrival sees."""

    def __init__(self, backend):
        super().__init__([backend], **FIFO)
        self.depth_seen = []

    def _handle_arrival(self, i, now):
        self.depth_seen.append(self.replicas[0].queue_depth(now))
        super()._handle_arrival(i, now)


@dataclass(frozen=True)
class Replay:
    """What the checks read from one kernel replay."""

    arrival_s: np.ndarray
    service_s: np.ndarray  # the law's per-request service time
    wait_s: np.ndarray  # dispatch - arrival
    sojourn_s: np.ndarray  # completion - arrival
    depth_seen: np.ndarray
    arrival_rate_hz: float
    busy_s: float
    served_s: float  # sum of completion - dispatch


def replay(law, arrivals, exits):
    n = arrivals.shape[0]
    cluster = _DepthSampledCluster(make_backend(law, exits))
    report, log = cluster.serve_log(np.arange(n), arrivals)
    assert report.n_served == n
    return Replay(
        arrival_s=arrivals,
        service_s=law_service_s(law, exits),
        wait_s=log.dispatch_s - log.arrival_s,
        sojourn_s=log.completion_s - log.arrival_s,
        depth_seen=np.asarray(cluster.depth_seen),
        arrival_rate_hz=report.arrival_rate_hz,
        busy_s=cluster.replicas[0].busy_s,
        served_s=float(np.sum(log.completion_s - log.dispatch_s)),
    )


def lindley_sojourns(arrival_s, service_s):
    """FIFO single-server sojourns: ``c_i = max(a_i, c_{i-1}) + s_i``."""
    completion = np.empty_like(arrival_s)
    prev = -math.inf
    for i, (a, s) in enumerate(zip(arrival_s.tolist(), service_s.tolist())):
        prev = max(a, prev) + s
        completion[i] = prev
    return completion - arrival_s


@pytest.fixture(scope="module")
def replays():
    """``replays(law, rho)``: that case's seeded replays, each built once."""
    built = {}

    def get(law, rho):
        if (law, rho) not in built:
            rate = rho / service_moments(law)[0]
            built[law, rho] = [
                replay(law, *draw_trace(law, rate, N_REQUESTS, seed)) for seed in SEEDS
            ]
        return built[law, rho]

    return get


CASES = pytest.mark.parametrize(
    "law, rho", [(law, rho) for law in LAWS for rho in LOADS]
)


@CASES
def test_pollaczek_khinchine_mean_wait(replays, law, rho):
    mean_s, second_moment = service_moments(law)
    closed_form = (rho / mean_s) * second_moment / (2 * (1 - rho))
    batch_means = np.concatenate(
        [r.wait_s.reshape(BATCHES_PER_SEED, -1).mean(axis=1) for r in replays(law, rho)]
    )
    k = batch_means.size
    half_width = stats.t.ppf(0.995, k - 1) * batch_means.std(ddof=1) / math.sqrt(k)
    assert half_width <= 0.2 * closed_form, "interval too wide to tell E[S²] from E[S]²"
    assert abs(batch_means.mean() - closed_form) <= half_width, (
        f"mean wait {batch_means.mean() * 1e3:.4f} ms vs P-K {closed_form * 1e3:.4f} ms "
        f"(99% half-width {half_width * 1e3:.4f} ms)"
    )


@CASES
def test_littles_law_on_the_waiting_room(replays, law, rho):
    """``L_q = λ·W_q``, with ``L_q`` sampled at arrivals (PASTA).

    The samples pool the case's seeds: at ρ = 0.3 one replay's waiting
    room holds 0.06 requests on average, too few for a 3% check alone.
    """
    runs = replays(law, rho)
    depth = np.concatenate([r.depth_seen for r in runs]).mean()
    rate = np.mean([r.arrival_rate_hz for r in runs])
    wait = np.concatenate([r.wait_s for r in runs]).mean()
    assert depth == pytest.approx(rate * wait, rel=0.03)


def test_observer_queue_depth_gauge_counts_the_waiting_room():
    """The Observer's ``queue_depth`` series averages to ``L_q = λ·W_q``.

    Each dispatch records the waiting room it leaves behind: the batcher
    plus committed copies that have not started.  With batch size 1 and
    no wait, every arrival dispatches at once, so by PASTA the samples
    average to the time-average number waiting.
    """
    law = "constant"
    rate = 0.9 / service_moments(law)[0]
    arrivals, exits = draw_trace(law, rate, 20_000, seed=0)
    obs = Observer()
    cluster = Cluster([make_backend(law, exits)], obs=obs, **FIFO)
    report, log = cluster.serve_log(np.arange(arrivals.size), arrivals)
    depth = obs.metrics.series("queue_depth")
    assert depth.counts().sum() == arrivals.size
    wait = float(np.mean(log.dispatch_s - log.arrival_s))
    mean_depth = depth.sums().sum() / depth.counts().sum()
    assert mean_depth == pytest.approx(report.arrival_rate_hz * wait, rel=0.03)


@CASES
def test_work_conservation(replays, law, rho):
    for r in replays(law, rho):
        assert r.busy_s == pytest.approx(r.served_s, rel=1e-12)


@CASES
def test_sojourns_equal_lindley_reference(replays, law, rho):
    for r in replays(law, rho):
        assert np.array_equal(r.sojourn_s, lindley_sojourns(r.arrival_s, r.service_s))


@pytest.mark.parametrize("law", LAWS)
def test_overload_stays_exact(law):
    """The kernel serves offered load ≥ 1 by design: at ρ = 1.2 the
    queue grows without bound and every sojourn still matches."""
    rate = 1.2 / service_moments(law)[0]
    for seed in SEEDS:
        r = replay(law, *draw_trace(law, rate, 3_000, seed))
        assert np.array_equal(r.sojourn_s, lindley_sojourns(r.arrival_s, r.service_s))


@pytest.mark.parametrize(
    "law, exits",
    [("constant", True), ("bimodal", True), ("bimodal", False)],
    ids=["constant", "bimodal-early-exit", "bimodal-full-path"],
)
def test_single_request_sojourn_is_its_service_time(law, exits):
    r = replay(law, np.array([0.25]), np.array([exits]))
    assert r.wait_s[0] == 0.0
    assert np.array_equal(r.sojourn_s, lindley_sojourns(r.arrival_s, r.service_s))
    assert r.sojourn_s[0] == pytest.approx(r.service_s[0], rel=1e-12)


def test_cbnet_tail_advantage_exceeds_mean_advantage():
    """Constant service (CBNet) beats bimodal service (BranchyNet) by
    more at p99 than at the mean, for equal arrival rates."""
    rate, n = 150.0, 50_000
    reports = {}
    for law in LAWS:
        arrivals, exits = draw_trace(law, rate, n, seed=3)
        reports[law] = Cluster([make_backend(law, exits)], **FIFO).serve(np.arange(n), arrivals)
    cbnet, branchy = reports["constant"], reports["bimodal"]
    mean_ratio = branchy.mean_s / cbnet.mean_s
    p99_ratio = branchy.p99_s / cbnet.p99_s
    assert p99_ratio > mean_ratio > 1.0
