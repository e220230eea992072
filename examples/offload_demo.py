#!/usr/bin/env python
"""Offload demo: split BranchyNet between a Pi 4 and a GCI cloud server.

Builds (or loads from cache) a small CBNet pipeline, then serves one
request stream three ways on an LTE uplink — everything on the Pi,
everything shipped to the cloud, and the entropy-gated split where easy
samples exit at the on-device branch while hard samples ship their stem
activation upstream.  The load is sized so both degenerate strategies
saturate (the Pi on compute, the LTE uplink on raw images) and only the
split survives.  A second pass walks the link through a trace-driven
bandwidth collapse to show the deadline-aware policy falling back to
local trunks.

Run:  python examples/offload_demo.py
"""

from dataclasses import replace

from repro import PipelineConfig, TrainConfig, build_cbnet_pipeline
from repro.hw import BandwidthTrace, gci_cpu, lte, raspberry_pi4
from repro.hw.latency import branchynet_expected_latency
from repro.offload import (
    AlwaysLocal,
    AlwaysRemote,
    DeadlineAware,
    EdgeTier,
    EntropyGated,
    TensorCodec,
    cloud_server_for,
    offload_comparison_table,
)
from repro.serving import poisson_arrivals, zipf_popularity


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
    branchy = artifacts.branchynet
    test = artifacts.datasets["test"]
    edge, cloud_dev, link = raspberry_pi4(), gci_cpu(), lte()

    # 2. One Zipf-skewed stream at a rate past the Pi's full-model
    #    capacity (and past the LTE uplink's raw-image capacity).
    exit_rate = branchy.infer(test.images).early_exit_rate
    lat = branchynet_expected_latency(branchy, edge, exit_rate)
    rate_hz = min(0.88 / lat.early_path, 1.25 / lat.expected)
    n_requests = 1500
    popular = zipf_popularity(len(test.images), n_requests, exponent=0.9, rng=1)
    images, labels = test.images[popular], test.labels[popular]
    arrival_s = poisson_arrivals(rate_hz, n_requests, rng=2)

    # 3. Local vs remote vs split, identical stream, float16 activations.
    reports = []
    for policy in (AlwaysLocal(), AlwaysRemote(), EntropyGated()):
        cloud = cloud_server_for(
            policy, branchy, cloud_dev, max_batch_size=16, max_wait_s=0.005
        )
        tier = EdgeTier(
            branchy, edge, link, cloud, policy, codec=TensorCodec("float16"), rng=3
        )
        report = tier.serve(images, arrival_s, labels=labels, scenario="steady")
        print(report.summary())
        reports.append(report)

    # 4. The link collapses to 5% bandwidth mid-trace: deadline-aware
    #    offloading degrades to local trunks instead of queueing on air.
    span = float(arrival_s[-1])
    degraded = replace(
        lte(),
        degradation=BandwidthTrace(times_s=(0.4 * span, 0.8 * span), scales=(0.05, 1.0)),
    )
    policy = DeadlineAware(deadline_s=0.2)  # 200 ms interactive SLO
    cloud = cloud_server_for(
        policy, branchy, cloud_dev, max_batch_size=16, max_wait_s=0.005
    )
    tier = EdgeTier(branchy, edge, degraded, cloud, policy, rng=3)
    report = tier.serve(images, arrival_s, labels=labels, scenario="link-collapse")
    print(report.summary())
    reports.append(report)

    print()
    print(
        offload_comparison_table(
            reports, f"Pi 4 -> GCI over LTE @ {rate_hz:.0f} req/s, exit rate {exit_rate:.1%}"
        ).render()
    )
    local, remote, gated, deadline = reports
    print(
        f"\nEntropy-gated split: p95 {gated.p95_s * 1e3:.1f} ms vs always-local "
        f"{local.p95_s * 1e3:.1f} ms (Pi saturated) and always-remote "
        f"{remote.p95_s * 1e3:.1f} ms (uplink saturated), shipping only "
        f"{gated.offload_rate:.1%} of requests ({gated.uplink_mb:.2f} MB up)."
    )


if __name__ == "__main__":
    main()
