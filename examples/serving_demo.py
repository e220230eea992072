#!/usr/bin/env python
"""Serving-engine demo: put a trained CBNet behind a one-replica `Cluster`.

Builds (or loads from cache) a small CBNet pipeline, wraps it and
BranchyNet as serving backends on a simulated Raspberry Pi 4, and
replays the same bursty Zipf-skewed request stream through each on a
one-replica `repro.cluster.Cluster` — micro-batching, LRU result
caching, and easy/hard routing included — then prints the two runs side
by side in the serving study's table.

Run:  python examples/serving_demo.py
"""

from repro import PipelineConfig, TrainConfig, build_cbnet_pipeline
from repro.cluster import Cluster
from repro.experiments.serve import ServingComparison
from repro.hw import raspberry_pi4
from repro.serving import (
    BranchyNetBackend,
    CBNetBackend,
    bursty_arrivals,
    zipf_popularity,
)


def main() -> None:
    # 1. A trained pipeline (disk-cached: rerunning this script is instant).
    config = PipelineConfig(
        dataset="mnist",
        seed=0,
        n_train=2500,
        n_test=600,
        classifier_train=TrainConfig(epochs=10),
        autoencoder_train=TrainConfig(epochs=8, batch_size=128),
    )
    artifacts = build_cbnet_pipeline(config)
    test = artifacts.datasets["test"]
    device = raspberry_pi4()

    # 2. A bursty request stream with Zipf-skewed image popularity:
    #    2000 requests over the 600 test images, so hot images repeat and
    #    the LRU result cache gets real work.
    n_requests = 2000
    popular = zipf_popularity(len(test.images), n_requests, exponent=0.9, rng=1)
    images, labels = test.images[popular], test.labels[popular]
    arrival_s = bursty_arrivals(
        base_rate_hz=150.0, burst_rate_hz=450.0, n=n_requests, rng=2
    )

    # 3. Serve the identical stream through CBNet and BranchyNet, each on
    #    a one-replica cluster (one node: cache, micro-batcher, worker),
    #    and set the two runs side by side.
    runs = {}
    for backend in (
        CBNetBackend(artifacts.cbnet, device),
        BranchyNetBackend(artifacts.branchynet, device),
    ):
        node = Cluster(
            [backend],
            max_batch_size=16,
            max_wait_s=0.004,
            cache_capacity=256,
        )
        runs[backend.name] = node.serve_log(
            images, arrival_s, labels=labels, scenario="bursty"
        )
    comparison = ServingComparison(
        dataset=config.dataset,
        device=device.name,
        n_requests=n_requests,
        exit_rate=artifacts.branchynet.infer(test.images).early_exit_rate,
        runs={"bursty": runs},
    )
    print(comparison.render())

    (cb, _), (br, _) = runs["cbnet"], runs["branchynet"]
    print(
        f"\nCBNet's constant service time keeps its p99 at {cb.p99_s * 1e3:.1f} ms "
        f"vs BranchyNet's {br.p99_s * 1e3:.1f} ms under identical load."
    )


if __name__ == "__main__":
    main()
