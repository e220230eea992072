"""Fig. 7 bench — scalability analysis on FMNIST across all devices.

FMNIST is the hard-heavy dataset (23% hard): the BranchyNet-CBNet gap
must be wider than on MNIST at the same ratio (paper: "this trend is
more prominent in the cases of FMNIST and KMNIST").
"""

from repro.experiments.scalability import run_scalability

from conftest import emit


def test_regenerate_fig7(benchmark, results_dir, fmnist_artifacts, mnist_artifacts):
    fig7 = benchmark.pedantic(
        run_scalability,
        args=("fmnist",),
        kwargs={"artifacts": fmnist_artifacts},
        rounds=1,
        iterations=1,
    )
    text = "\n\n".join(
        fig7.render(device) for device in ("raspberry-pi4", "gci-cpu", "gci-k80")
    )
    emit(results_dir, "fig7_fmnist", text)
    assert len(fig7.points) == 10

    # Gap widens with size.
    gaps = [
        p.branchy_total_s["raspberry-pi4"] - p.cbnet_total_s["raspberry-pi4"]
        for p in fig7.points
    ]
    assert gaps[-1] > gaps[0]

    # FMNIST is harder than MNIST: lower exit rate, bigger relative gap.
    fig6 = run_scalability("mnist", artifacts=mnist_artifacts)
    assert fig7.points[-1].exit_rate < fig6.points[-1].exit_rate

    def final_ratio(result):
        p = result.points[-1]
        return p.branchy_total_s["raspberry-pi4"] / p.cbnet_total_s["raspberry-pi4"]

    assert final_ratio(fig7) > 0.999 * final_ratio(fig6)

    # CBNet accuracy stays competitive on the hard-heavy dataset.
    p = fig7.points[-1]
    assert p.cbnet_accuracy_pct > p.branchy_accuracy_pct - 3.0


def test_fmnist_inference_wallclock(benchmark, fmnist_artifacts):
    test = fmnist_artifacts.datasets["test"]
    preds = benchmark(fmnist_artifacts.cbnet.predict, test.images[:300])
    assert preds.shape == (300,)
