"""Extension bench — tail latency under load (not a paper figure).

The paper compares mean per-image latency; this bench quantifies what
the static pipeline buys at the *tail*: CBNet's constant service time vs
BranchyNet's bimodal one under Poisson arrivals on the Pi-4 profile.
Each system is a one-replica :class:`~repro.cluster.Cluster` that serves
one request at a time (``max_batch_size=1``, ``max_wait_s=0``) — an
M/G/1 FIFO queue, pinned to its closed forms in
``tests/sim/test_analytic_oracles.py``.
"""

import numpy as np

from repro.cluster import Cluster
from repro.eval.tables import Table
from repro.hw.devices import raspberry_pi4
from repro.hw.latency import branchynet_expected_latency, cbnet_latency
from repro.serving.arrivals import poisson_arrivals
from repro.serving.backends import BatchTiming, InferenceBackend
from repro.sim import InferenceTable, OracleBackend

from conftest import emit

N_REQUESTS = 30_000


def serve_one_at_a_time(timing, arrivals, exits=None):
    """Serve ``arrivals`` FIFO on one worker; ``exits`` marks early exits.

    Request ``i`` is sample id ``i`` of an oracle table, so the service
    law is all the backend carries: ``timing`` alone for a static
    pipeline, plus the per-request exit mask for an early-exit one.
    """
    n = arrivals.shape[0]
    preds = np.zeros(n, dtype=np.int64)
    if exits is None:
        table = InferenceTable(easy_preds=preds)
    else:
        table = InferenceTable(preds, hard_preds=preds, entropy=np.zeros(n), easy=exits)
    backend = OracleBackend(InferenceBackend(timing), table)
    cluster = Cluster([backend], policy="round-robin", max_batch_size=1, max_wait_s=0.0)
    return cluster.serve(np.arange(n), arrivals)


def test_tail_latency_under_load(benchmark, results_dir, mnist_artifacts):
    device = raspberry_pi4()
    test = mnist_artifacts.datasets["test"]
    exit_rate = mnist_artifacts.branchynet.infer(test.images).early_exit_rate
    branchy = branchynet_expected_latency(mnist_artifacts.branchynet, device, exit_rate)
    t_cbnet = cbnet_latency(mnist_artifacts.cbnet, device).total

    # Arrival rate at ~70% utilization of the *slower* system.
    rate = 0.7 / branchy.expected

    def run():
        cb = serve_one_at_a_time(
            BatchTiming(0.0, t_cbnet), poisson_arrivals(rate, N_REQUESTS, rng=0)
        )
        rng = np.random.default_rng(0)
        exits = rng.random(N_REQUESTS) < exit_rate
        br = serve_one_at_a_time(
            BatchTiming(
                0.0,
                branchy.early_path,
                per_hard_extra_s=branchy.full_path - branchy.early_path,
            ),
            poisson_arrivals(rate, N_REQUESTS, rng=rng),
            exits,
        )
        return cb, br

    cb, br = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table(
        headers=["system", "mean (ms)", "p95 (ms)", "p99 (ms)", "server util"],
        title=f"Serving tails on Pi 4 @ {rate:.0f} req/s (exit rate {exit_rate:.0%})",
    )
    for name, stats in (("CBNet", cb), ("BranchyNet", br)):
        table.add_row(
            name,
            f"{stats.mean_s * 1e3:.2f}",
            f"{stats.p95_s * 1e3:.2f}",
            f"{stats.p99_s * 1e3:.2f}",
            f"{stats.utilization:.0%}",
        )
    emit(results_dir, "serving_tails", table.render())

    # CBNet wins the mean and wins the tail by at least as much.
    assert cb.mean_s < br.mean_s
    assert cb.p99_s < br.p99_s
    assert br.p99_s / cb.p99_s >= br.mean_s / cb.mean_s * 0.95
