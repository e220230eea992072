"""Extension bench — the batched serving engine under three load shapes.

Runs each backend end to end on a one-replica `repro.cluster.Cluster`:
CBNet / BranchyNet / LeNet / hybrid predictions behind the
micro-batcher, worker, LRU result cache, and entropy router, on the
calibrated Pi-4 timing model.
Inference runs through the precomputed oracle (`repro.sim`): one model
pass per dataset feeds every scenario at metrics identical to live
in-loop inference (`tests/sim` pins the parity).  Steady, bursty, and
overload arrival scenarios share identical request streams per
scenario, so the sojourn percentiles are directly comparable.
"""

from repro.experiments.serve import SCENARIOS, run_serving_comparison

from conftest import emit


def test_serving_engine_three_scenarios(benchmark, results_dir):
    comp = benchmark.pedantic(
        lambda: run_serving_comparison(fast=True, seed=0), rounds=1, iterations=1
    )
    emit(results_dir, "serving_engine", comp.render())

    # CBNet's constant service time must beat BranchyNet's bimodal one at
    # the tail under *every* load shape — the deployment-level claim.
    for scenario in SCENARIOS:
        cb = comp.report_for(scenario, "cbnet")
        br = comp.report_for(scenario, "branchynet")
        assert cb.p99_s < br.p99_s, f"CBNet p99 should win under {scenario} load"

    # Bursty scenario end-to-end: everything served, cache earning hits,
    # real predictions (accuracy is computed from served labels).
    bursty = comp.report_for("bursty", "cbnet")
    assert bursty.n_requests == comp.n_requests
    assert bursty.max_s > 0 and bursty.utilization > 0
    assert bursty.cache_hit_rate > 0.2
    assert bursty.accuracy > 0.9

    # Overload saturates the server: utilization pegged, the queue (and
    # with it p99) blowing up, dynamic batching growing the batches.
    steady_cb = comp.report_for("steady", "cbnet")
    over_cb = comp.report_for("overload", "cbnet")
    assert over_cb.utilization > 0.95
    assert over_cb.p99_s > 10 * steady_cb.p99_s
    assert over_cb.mean_batch_size > steady_cb.mean_batch_size

    # Under overload the lighter pipeline sustains more traffic.
    assert (
        over_cb.throughput_rps
        > comp.report_for("overload", "branchynet").throughput_rps
        > comp.report_for("overload", "lenet").throughput_rps
    )
