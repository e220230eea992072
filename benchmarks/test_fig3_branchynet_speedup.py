"""Fig. 3 bench — BranchyNet speedup over LeNet vs hard-sample fraction.

Paper reading: ~5.5x speedup on MNIST (5% hard) collapsing to ~1.7x on
FMNIST (23% hard).  The reproduction must show the same *ordering* and a
clearly shrinking gap.
"""

from repro.experiments.fig3 import run_fig3

from conftest import emit


def test_regenerate_fig3(benchmark, results_dir, mnist_artifacts, fmnist_artifacts):
    # Pipelines already trained by the fixtures (disk-cached); the
    # benchmarked call measures exit-rate measurement + latency modelling.
    fig3 = benchmark.pedantic(run_fig3, kwargs={"fast": True}, rounds=1, iterations=1)
    emit(results_dir, "fig3", fig3.render())
    by_name = {p.dataset: p for p in fig3.points}
    assert set(by_name) == {"mnist", "fmnist"}

    # The figure's core claim: speedup shrinks as hard fraction grows.
    assert by_name["fmnist"].hard_sample_pct > by_name["mnist"].hard_sample_pct
    assert by_name["mnist"].speedup > by_name["fmnist"].speedup
    # Magnitudes (paper: 5.5x vs 1.7x — require >2.5x and a visible gap).
    assert by_name["mnist"].speedup > 2.5
    assert by_name["mnist"].speedup / by_name["fmnist"].speedup > 1.15


def test_branchynet_inference_wallclock(benchmark, mnist_artifacts):
    """Real NumPy wall-clock of gated BranchyNet inference (500 images)."""
    test = mnist_artifacts.datasets["test"]
    images = test.images[:500]
    result = benchmark(mnist_artifacts.branchynet.infer, images)
    assert result.predictions.shape == (500,)
