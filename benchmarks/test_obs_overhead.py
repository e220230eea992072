"""Scale bench — the observability overhead gate at a million requests.

The observability contract is ≤10% overhead traced, ~0% disabled: the
hot loop only appends sparse rows (one per dispatched batch, one per
rare event), finalize is O(1), and every derived view (metric
aggregates, SLO windows, the dense per-request span tree) is
synthesized vectorized on first read.  This bench replays the same
1M-request
Zipf/Poisson cluster trace as ``test_million_requests`` twice — once
bare, once with an :class:`~repro.obs.Observer` attached — records both
medians for the ``BENCH_<n>.json`` trajectory, and asserts the traced
run inside 1.10x of the untraced one.

The in-test gate is **paired**: each traced round's pedantic ``setup``
times one untraced run first, so the rounds alternate U,T,U,T,… in a
single process, and the gate takes the median of the per-round ratios
``T_i / U_i``.  Pairing matters on a shared box — machine load drifts
over a session, so arms measured minutes apart (or even a
median-vs-median over interleaved rounds, when the drift lands
mid-run) see different regimes, while each adjacent pair sees the
same one; the median over pairs then shrugs off a single outlier
round.

A third arm plays the same game for the phase profiler
(:mod:`repro.obs.prof`): full scoped timers through the engine loops,
gated at a 1.15x median paired ratio, with the phase tree checked for
completeness (arrival bursts crossed ``ingest``, one ``serve`` root,
self times covering the run).

Each arm writes two files.  ``benchmarks/results/obs_overhead_<arm>.txt``
holds only what the replay determines (the report, the span and alert
counts, the phase tree's call counts), so it is byte-identical from run
to run; the timings, ratios and the timed phase tree go to the ignored
``.bench_build/results/obs_overhead_<arm>.txt``.
"""

import statistics
import time

import numpy as np

from repro.cluster.engine import Cluster
from repro.hw.devices import gci_cpu
from repro.obs import Observer
from repro.obs.prof import PhaseProfiler
from repro.serving.arrivals import poisson_arrivals, zipf_popularity
from repro.serving.backends import CBNetBackend
from repro.sim import oracle_backend

from conftest import emit

N_REQUESTS = 1_000_000
N_REPLICAS = 4

#: Per-arm stats shared across the two tests in this file (pytest runs
#: them in definition order within one session).
_STATS: dict[str, float] = {}


def _trace(mnist_artifacts):
    test = mnist_artifacts.datasets["test"]
    base = CBNetBackend(mnist_artifacts.cbnet, gci_cpu())
    backends = [oracle_backend(base, test.images) for _ in range(N_REPLICAS)]
    max_batch = 32
    capacity_hz = N_REPLICAS / backends[0].mean_service_s(batch_size=max_batch)
    rng = np.random.default_rng(0)
    ids = zipf_popularity(len(test.images), N_REQUESTS, exponent=0.9, rng=rng)
    arrival_s = poisson_arrivals(0.7 * capacity_hz, N_REQUESTS, rng=rng)
    return backends, ids, arrival_s, test.labels[ids], max_batch


def _serve(backends, ids, arrival_s, labels, max_batch, obs, prof=None):
    cluster = Cluster(
        list(backends),
        policy="round-robin",
        slo_s=0.05,
        max_batch_size=max_batch,
        max_wait_s=0.002,
        cache_capacity=512,
        rng=0,
        obs=obs,
        prof=prof,
    )
    return cluster.serve(ids, arrival_s, labels=labels, scenario="obs-overhead")


def _phase_calls(phases) -> str:
    """The phase tree with its call counts only, which the replay determines."""
    lines = [f"{'phase':<40} {'calls':>10}"]
    for r in phases.rows:
        lines.append(f"{'  ' * (len(r.path) - 1) + r.name:<40} {r.count:>10d}")
    return "\n".join(lines)


def test_million_request_untraced(benchmark, results_dir, timings_dir, mnist_artifacts):
    """The bare arm: identical trace, no observer (the denominator)."""
    args = _trace(mnist_artifacts)

    report = benchmark.pedantic(lambda: _serve(*args, obs=None), rounds=4, iterations=1)
    _STATS["untraced_median"] = benchmark.stats.stats.median
    emit(results_dir, "obs_overhead_untraced", report.summary())
    emit(
        timings_dir,
        "obs_overhead_untraced",
        f"untraced median {_STATS['untraced_median']:.3f}s "
        f"(min {benchmark.stats.stats.min:.3f}s)",
    )
    assert report.n_requests == N_REQUESTS
    assert report.n_served == N_REQUESTS


def test_million_request_traced(benchmark, results_dir, timings_dir, mnist_artifacts):
    """The traced arm: full telemetry on, within 1.10x of the bare arm."""
    args = _trace(mnist_artifacts)
    observers = []
    bare = []

    def setup():
        # One untraced run *inside each traced round's setup* (untimed
        # by pytest-benchmark), so the measured rounds alternate
        # U,T,U,T,… in a single process and every traced round has an
        # untraced partner timed under the same machine-load regime.
        # (The untraced pytest-benchmark test still provides the
        # BENCH_<n>.json median.)
        t0 = time.perf_counter()
        _serve(*args, obs=None)
        bare.append(time.perf_counter() - t0)

    def run():
        obs = Observer()
        observers.append(obs)
        return _serve(*args, obs=obs)

    report = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    traced_med = benchmark.stats.stats.median
    obs = observers[-1]
    # Paired gate: per-round ratio vs the untraced run timed right
    # before it, then the median over pairs (drift-immune — see module
    # docstring).
    rounds = benchmark.stats.stats.data
    ratio = statistics.median(t / b for t, b in zip(rounds, bare))
    session_ratio = (
        traced_med / _STATS["untraced_median"]
        if "untraced_median" in _STATS
        else float("nan")
    )
    emit(
        results_dir,
        "obs_overhead_traced",
        f"{report.summary()}\n"
        f"{len(obs.spans):,} spans from {obs.tracer.n_rows:,} sparse rows | "
        f"worst burn {obs.slo.worst_burn():.1f}x, {len(obs.alerts)} alerts",
    )
    emit(
        timings_dir,
        "obs_overhead_traced",
        f"traced median {traced_med:.3f}s ({ratio:.2f}x median paired ratio vs "
        f"interleaved untraced runs, median {statistics.median(bare):.3f}s; "
        f"{session_ratio:.2f}x session untraced median)",
    )

    assert report.n_requests == N_REQUESTS
    assert report.n_served == N_REQUESTS
    # Telemetry is complete at scale: one root per served request, the
    # sparse rows stayed sparse, and the summary stats materialized.
    from repro.obs.spans import SPAN_REQUEST

    assert obs.spans.count(SPAN_REQUEST) == N_REQUESTS
    assert 0 < obs.tracer.n_rows < N_REQUESTS // 10
    assert np.isfinite(obs.metrics.snapshot()["sojourn_s.p99"])
    # The overhead gate itself: median paired traced/untraced ratio.
    assert ratio <= 1.10, f"tracing overhead {ratio:.2f}x exceeds 1.10x"


def test_million_request_profiled(benchmark, results_dir, timings_dir, mnist_artifacts):
    """The profiled arm: phase timers on, within 1.15x of unprofiled.

    Scoped timers cost two clock reads per phase; ``ingest`` is scoped
    per arrival *burst* and everything else is per-batch or coarser, so
    the scope-pair count tracks the batch count (tens of thousands)
    rather than the request count (a million) — which is what keeps the
    replay inside the 1.15x gate.  Same paired discipline as the traced
    arm: each round's setup times one unprofiled run (rounds alternate
    U,P,U,P,…) and the gate is the median per-round ratio.
    """
    args = _trace(mnist_artifacts)
    profilers = []
    bare = []

    def setup():
        t0 = time.perf_counter()
        _serve(*args, obs=None)
        bare.append(time.perf_counter() - t0)

    def run():
        prof = PhaseProfiler()
        profilers.append(prof)
        return _serve(*args, obs=None, prof=prof)

    report = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    profiled_med = benchmark.stats.stats.median
    rounds = benchmark.stats.stats.data
    ratio = statistics.median(p / b for p, b in zip(rounds, bare))
    phases = profilers[-1].report()
    by_name = phases.by_name()
    emit(results_dir, "obs_overhead_profiled", f"{report.summary()}\n{_phase_calls(phases)}")
    emit(
        timings_dir,
        "obs_overhead_profiled",
        f"profiled median {profiled_med:.3f}s ({ratio:.2f}x median paired ratio "
        f"vs interleaved unprofiled runs, median {statistics.median(bare):.3f}s)\n"
        f"{phases.render()}",
    )

    assert report.n_requests == N_REQUESTS
    assert report.n_served == N_REQUESTS
    # The phase tree is complete at scale: one serve root per round,
    # arrivals crossed ingest in bursts, and self times cover the run.
    assert phases.get("serve").count == 1
    assert 0 < by_name["ingest"][0] <= N_REQUESTS
    assert by_name["ingest"][1] > 0.0
    assert phases.total_s > 0.5 * profiled_med
    # The profiler overhead gate: median paired profiled/unprofiled ratio.
    assert ratio <= 1.15, f"profiling overhead {ratio:.2f}x exceeds 1.15x"
