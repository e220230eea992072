"""Fig. 5 bench — LeNet / BranchyNet / AdaDeep / SubFlow / CBNet on
MNIST / Raspberry Pi 4.

Paper reading: CBNet fastest (3.78x faster than AdaDeep, 4.85x than
SubFlow) with accuracy at least on par; compression baselines land
between CBNet and LeNet.
"""

from repro.experiments.fig5 import run_fig5

from conftest import emit


def test_regenerate_fig5(benchmark, results_dir, mnist_artifacts, mnist_lenet):
    fig5 = benchmark.pedantic(run_fig5, kwargs={"fast": True}, rounds=1, iterations=1)
    emit(results_dir, "fig5", fig5.render())
    assert {b.model for b in fig5.bars} == {
        "LeNet",
        "BranchyNet",
        "AdaDeep",
        "SubFlow",
        "CBNet",
    }

    # CBNet fastest of all five systems.
    cb = fig5.bar("CBNet").latency_ms
    for other in ("LeNet", "BranchyNet", "AdaDeep", "SubFlow"):
        assert cb < fig5.bar(other).latency_ms

    # Compression baselines sit between CBNet and LeNet.
    lenet = fig5.bar("LeNet").latency_ms
    assert cb < fig5.bar("AdaDeep").latency_ms < lenet
    assert cb < fig5.bar("SubFlow").latency_ms < lenet

    # Substantial margins (paper: 3.78x / 4.85x — require >= 2x).
    assert fig5.bar("AdaDeep").latency_ms / cb > 2.0
    assert fig5.bar("SubFlow").latency_ms / cb > 2.0

    # CBNet accuracy not dominated by the compression baselines.
    cb_acc = fig5.bar("CBNet").accuracy_pct
    assert cb_acc >= fig5.bar("SubFlow").accuracy_pct - 0.5
    assert cb_acc >= fig5.bar("AdaDeep").accuracy_pct - 1.5


def test_subflow_inference_wallclock(benchmark, mnist_lenet, mnist_artifacts):
    from repro.baselines import SubFlowExecutor

    executor = SubFlowExecutor(mnist_lenet, utilization=0.85)
    images = mnist_artifacts.datasets["test"].images[:300]
    preds = benchmark(executor.predict, images)
    assert preds.shape == (300,)
