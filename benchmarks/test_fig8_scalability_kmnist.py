"""Fig. 8 bench — scalability analysis on KMNIST across all devices.

KMNIST has the lowest early-exit rate in the paper (63.08%), so the
BranchyNet-CBNet gap is the widest of the three datasets.
"""

from repro.experiments.scalability import run_scalability

from conftest import emit


def test_regenerate_fig8(benchmark, results_dir, kmnist_artifacts, mnist_artifacts):
    fig8 = benchmark.pedantic(
        run_scalability,
        args=("kmnist",),
        kwargs={"artifacts": kmnist_artifacts},
        rounds=1,
        iterations=1,
    )
    text = "\n\n".join(
        fig8.render(device) for device in ("raspberry-pi4", "gci-cpu", "gci-k80")
    )
    emit(results_dir, "fig8_kmnist", text)
    assert len(fig8.points) == 10

    # Gap widens with size.
    gaps = [
        p.branchy_total_s["raspberry-pi4"] - p.cbnet_total_s["raspberry-pi4"]
        for p in fig8.points
    ]
    assert gaps[-1] > gaps[0]

    # KMNIST has a lower exit rate than MNIST (paper: 63.1% vs 94.9%).
    fig6 = run_scalability("mnist", artifacts=mnist_artifacts)
    assert fig8.points[-1].exit_rate < fig6.points[-1].exit_rate

    # And the widest BranchyNet/CBNet ratio of the three datasets.
    p = fig8.points[-1]
    ratio = p.branchy_total_s["raspberry-pi4"] / p.cbnet_total_s["raspberry-pi4"]
    assert ratio > 1.7

    # Device ordering holds at every ratio.
    for point in fig8.points:
        assert (
            point.cbnet_total_s["raspberry-pi4"]
            > point.cbnet_total_s["gci-cpu"]
            > point.cbnet_total_s["gci-k80"]
        )


def test_kmnist_inference_wallclock(benchmark, kmnist_artifacts):
    test = kmnist_artifacts.datasets["test"]
    preds = benchmark(kmnist_artifacts.cbnet.predict, test.images[:300])
    assert preds.shape == (300,)
