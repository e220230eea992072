"""Fig. 6 bench — scalability analysis on MNIST across all devices.

Paper reading: total inference time grows linearly with dataset-size
ratio for both systems; the BranchyNet-CBNet gap widens with size;
accuracies stay flat.
"""

import numpy as np

from repro.experiments.scalability import run_scalability

from conftest import emit


def test_regenerate_fig6(benchmark, results_dir, mnist_artifacts):
    fig6 = benchmark.pedantic(
        run_scalability,
        args=("mnist",),
        kwargs={"artifacts": mnist_artifacts},
        rounds=1,
        iterations=1,
    )
    text = "\n\n".join(
        fig6.render(device) for device in ("raspberry-pi4", "gci-cpu", "gci-k80")
    )
    emit(results_dir, "fig6_mnist", text)
    assert len(fig6.points) == 10

    # Total time grows linearly with the dataset ratio.
    ratios = np.array([p.ratio for p in fig6.points])
    times = np.array([p.cbnet_total_s["raspberry-pi4"] for p in fig6.points])
    assert np.corrcoef(ratios, times)[0, 1] > 0.999

    # The BranchyNet-CBNet gap widens with size (paper §IV-F).
    gaps = [
        p.branchy_total_s["raspberry-pi4"] - p.cbnet_total_s["raspberry-pi4"]
        for p in fig6.points
    ]
    assert gaps[-1] > gaps[0]
    # Linear growth: the gap at full size is ~2x the gap at half size
    # (slack for exit-rate fluctuation between stratified subsets).
    assert gaps[-1] > 1.5 * gaps[len(gaps) // 2 - 1]

    # Accuracies and exit rates stay roughly flat across ratios
    # (stratified subsets hold the hard proportion constant).
    cb_acc = [p.cbnet_accuracy_pct for p in fig6.points]
    br_acc = [p.branchy_accuracy_pct for p in fig6.points]
    assert max(cb_acc) - min(cb_acc) < 6.0
    assert max(br_acc) - min(br_acc) < 6.0
    # Smallest subsets (~60 samples) carry binomial noise of ±5pts, so the
    # flatness check starts at ratio 0.2.
    rates = [p.exit_rate for p in fig6.points if p.ratio >= 0.2]
    assert max(rates) - min(rates) < 0.12

    # CBNet below BranchyNet at every ratio on every device.
    for p in fig6.points:
        for device in ("raspberry-pi4", "gci-cpu", "gci-k80"):
            assert p.cbnet_total_s[device] < p.branchy_total_s[device]


def test_subset_inference_wallclock(benchmark, mnist_artifacts):
    from repro.data.splits import stratified_subset

    test = mnist_artifacts.datasets["test"]
    subset = stratified_subset(test, 0.5, rng=0, by="is_hard")
    preds = benchmark(mnist_artifacts.cbnet.predict, subset.images)
    assert preds.shape == (len(subset),)
